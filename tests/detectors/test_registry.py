"""Tests for the detector registry."""

import pytest

from repro.detectors.base import Detector
from repro.detectors.registry import available_detectors, make_detector
from repro.errors import ConfigurationError


class TestRegistry:
    @pytest.mark.parametrize("name", available_detectors())
    def test_all_names_construct(self, name, small_system):
        kwargs = {}
        if name in ("flexcore", "a-flexcore", "soft-flexcore"):
            kwargs["num_paths"] = 8
        detector = make_detector(name, small_system, **kwargs)
        assert isinstance(detector, Detector)
        # The detector reports itself under its registry name.
        assert detector.name == {"geosphere": "sphere"}.get(name, name)

    def test_geosphere_alias(self, small_system):
        detector = make_detector("geosphere", small_system)
        assert detector.name == "sphere"

    def test_unknown_name_raises(self, small_system):
        with pytest.raises(ConfigurationError):
            make_detector("turbo", small_system)

    @pytest.mark.parametrize("name", ["kbest", "kbest-adaptive", "lr-zf"])
    def test_deleted_names_refused_with_the_options(self, name, small_system):
        """K-best, adaptive K-best and LR-aided ZF appear nowhere in the
        paper's comparisons; the refusal lists what remains."""
        with pytest.raises(ConfigurationError) as refusal:
            make_detector(name, small_system)
        assert str(available_detectors()) in str(refusal.value)

    def test_kwargs_forwarded(self, small_system):
        # num_expanded=1 is FCSD's default, so 2 shows the forwarding.
        detector = make_detector("fcsd", small_system, num_expanded=2)
        assert detector.num_expanded == 2
