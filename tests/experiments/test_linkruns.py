"""Tests for shared link-experiment plumbing."""

import numpy as np
import pytest

from repro.api import build_stack
from repro.detectors.sphere import SphereDecoder
from repro.experiments.common import PROFILES
from repro.experiments.linkruns import (
    LINK_STACK_CONFIG,
    calibrate_ml_snr,
    flexcore_pe_sweep,
    make_link_config,
    make_sampler_factory,
    ml_reference_detector,
    run_point,
    runtime_stack_config,
)
from repro.flexcore.detector import FlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation

TINY = PROFILES["quick"].scaled(0.25)


@pytest.fixture(scope="module")
def system():
    return MimoSystem(4, 4, QamConstellation(16))


class TestConfig:
    def test_link_config_respects_profile(self, system):
        config = make_link_config(system, TINY)
        assert config.subcarriers_used == TINY.subcarriers
        assert config.ofdm_symbols_per_packet == TINY.ofdm_symbols_per_packet

    def test_sampler_factory_deterministic(self, system):
        config = make_link_config(system, TINY)
        factory = make_sampler_factory(config, TINY, "testbed")
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        first = factory()(0, rng_a)
        second = factory()(0, rng_b)
        assert np.allclose(first, second)

    def test_rayleigh_factory(self, system):
        config = make_link_config(system, TINY)
        factory = make_sampler_factory(config, TINY, "rayleigh")
        channels = factory()(0, np.random.default_rng(1))
        assert channels.shape == (TINY.subcarriers, 4, 4)


class TestRuntimeStackConfig:
    def test_default_is_serial_batch_with_sweep_sized_cache(self):
        config = runtime_stack_config(LINK_STACK_CONFIG)
        assert config == LINK_STACK_CONFIG
        assert config.backend.name == "serial"
        assert not config.farm.streaming
        assert config.cache.max_entries == 4096

    def test_explicit_config_strips_detector_and_governor(self):
        """Throughput experiments sweep their own detectors at their
        labelled path counts: an explicit config's detector AND
        governor must both be detached, or a governed preset would
        silently shed/clamp mid-measurement."""
        from repro.api import presets

        config = runtime_stack_config(presets.get("farm-overload"))
        assert config.detector is None
        assert config.governor is None
        # The runtime half survives untouched.
        assert config.backend.name == "array"
        assert config.farm.streaming and config.farm.cells == 2

    def test_stripped_config_builds_ungoverned_stack(self, system):
        from repro.api import presets

        detector = FlexCoreDetector(system, num_paths=8)
        config = runtime_stack_config(presets.get("farm-overload"))
        with build_stack(config, detector=detector) as stack:
            assert stack.governor is None


class TestMlReference:
    def test_proxy_in_cheap_profiles(self, system):
        detector = ml_reference_detector(system, TINY)
        assert isinstance(detector, FlexCoreDetector)
        assert detector.num_paths <= TINY.ml_proxy_paths

    def test_sphere_in_full_profile(self, system):
        detector = ml_reference_detector(system, PROFILES["full"])
        assert isinstance(detector, SphereDecoder)

    def test_proxy_capped_by_tree_size(self):
        tiny_tree = MimoSystem(2, 2, QamConstellation(4))
        detector = ml_reference_detector(tiny_tree, TINY)
        assert detector.num_paths <= 16


class TestSweep:
    def test_quick_sweep_contents(self):
        sweep = flexcore_pe_sweep(10_000, TINY)
        assert sweep[0] == 1
        assert 196 in sweep

    def test_sweep_respects_tree_size(self):
        sweep = flexcore_pe_sweep(20, TINY)
        assert max(sweep) <= 20


class TestRunPoint:
    def test_calibration_then_point(self, system):
        snr = calibrate_ml_snr(system, 0.2, TINY, LINK_STACK_CONFIG, "testbed")
        config = make_link_config(system, TINY)
        factory = make_sampler_factory(config, TINY, "testbed")
        detector = ml_reference_detector(system, TINY)
        link = run_point(config, detector, snr, TINY, factory, LINK_STACK_CONFIG)
        # Tiny-profile statistics are loose; just sanity-band the PER.
        assert 0.0 <= link.per <= 0.8
