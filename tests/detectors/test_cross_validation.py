"""Cross-detector consistency checks over the whole registry."""

import numpy as np
import pytest

from repro.detectors.registry import available_detectors, make_detector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from tests.conftest import random_link


def _make(name, system):
    kwargs = {}
    if name in ("flexcore", "a-flexcore", "soft-flexcore"):
        kwargs["num_paths"] = 32
    return make_detector(name, system, **kwargs)


class TestNoiselessConsensus:
    @pytest.mark.parametrize("name", available_detectors())
    def test_every_detector_recovers_truth(self, name):
        """Without noise, all schemes must agree with the transmitter."""
        system = MimoSystem(3, 3, QamConstellation(16))
        rng = np.random.default_rng(11)
        channel, indices, received, _ = random_link(system, 200.0, 15, rng)
        result = _make(name, system).detect(channel, received, 1e-16)
        assert np.array_equal(result.indices, indices)


class TestModerateSnrOrdering:
    def test_quality_hierarchy(self):
        """Vector errors: ML <= FlexCore-32 <= SIC <= ZF (statistically)."""
        system = MimoSystem(4, 4, QamConstellation(16))
        totals = {"ml": 0, "flexcore": 0, "sic": 0, "zf": 0}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            channel, indices, received, noise_var = random_link(
                system, 12.0, 30, rng
            )
            for name in totals:
                detector = _make(name, system)
                result = detector.detect(channel, received, noise_var)
                totals[name] += np.count_nonzero(
                    (result.indices != indices).any(axis=1)
                )
        assert totals["ml"] <= totals["flexcore"]
        assert totals["flexcore"] <= totals["sic"]
        assert totals["sic"] <= totals["zf"]


class TestBatchShapeContract:
    @pytest.mark.parametrize("name", available_detectors())
    def test_output_shape_and_range(self, name):
        system = MimoSystem(3, 4, QamConstellation(16))
        rng = np.random.default_rng(5)
        channel, _, received, noise_var = random_link(system, 15.0, 7, rng)
        detector = _make(name, system)
        result = detector.detect(channel, received, noise_var)
        assert result.indices.shape == (7, 3)
        assert result.indices.min() >= 0
        assert result.indices.max() < 16
