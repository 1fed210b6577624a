"""Equivalence suite: the batched runtime vs per-vector detection.

The engine's whole value is systems-level (caching, batching, stacking);
its output must be *bit-identical* to driving the detector one received
vector at a time.  These tests pin that across QAM orders, QR orderings,
path counts, backends, and the soft path.
"""

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channels
from repro.detectors.registry import make_detector
from repro.errors import ConfigurationError, DimensionError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.runtime import DetectionService, UplinkBatch
from tests.conftest import make_stack

NUM_SUBCARRIERS = 6
NUM_FRAMES = 4


def make_workload(system, seed, snr_db=16.0):
    """Deterministic (channels, received, noise_var) uplink workload."""
    rng = np.random.default_rng(seed)
    channels = rayleigh_channels(
        NUM_SUBCARRIERS, system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    received = np.empty(
        (NUM_SUBCARRIERS, NUM_FRAMES, system.num_rx_antennas),
        dtype=np.complex128,
    )
    for sc in range(NUM_SUBCARRIERS):
        indices = random_symbol_indices(
            NUM_FRAMES, system.num_streams, system.constellation, rng
        )
        received[sc] = apply_channel(
            channels[sc],
            system.constellation.points[indices],
            noise_var,
            rng,
        )
    return channels, received, noise_var


def per_vector_indices(detector, channels, received, noise_var):
    """The naive reference: one prepare+detect per received vector."""
    stacked = np.empty(
        received.shape[:2] + (detector.system.num_streams,), dtype=np.int64
    )
    for sc in range(received.shape[0]):
        for frame in range(received.shape[1]):
            result = detector.detect(
                channels[sc], received[sc, frame : frame + 1], noise_var
            )
            stacked[sc, frame] = result.indices[0]
    return stacked


class TestHardEquivalence:
    @pytest.mark.parametrize("order", [4, 16, 64])
    @pytest.mark.parametrize("qr_method", ["sorted", "fcsd", "plain"])
    def test_qam_and_qr_sweep(self, order, qr_method):
        system = MimoSystem(4, 4, QamConstellation(order))
        detector = FlexCoreDetector(
            system, num_paths=16, qr_method=qr_method
        )
        channels, received, noise_var = make_workload(system, seed=order)
        reference = per_vector_indices(
            detector, channels, received, noise_var
        )
        engine = make_stack(detector)
        batched = engine.detect_batch(channels, received, noise_var)
        assert np.array_equal(batched.indices, reference)

    @pytest.mark.parametrize("num_paths", [1, 7, 48, 196])
    def test_path_count_sweep(self, num_paths):
        system = MimoSystem(4, 6, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=num_paths)
        channels, received, noise_var = make_workload(system, seed=num_paths)
        reference = per_vector_indices(
            detector, channels, received, noise_var
        )
        engine = make_stack(detector)
        batched = engine.detect_batch(channels, received, noise_var)
        assert np.array_equal(batched.indices, reference)

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("mmse", {}),
            ("sic", {}),
            ("trellis", {}),
            ("fcsd", {"num_expanded": 1}),
            ("zf", {}),
            ("ml", {}),
            ("sphere", {}),
        ],
    )
    def test_registry_baselines(self, name, kwargs):
        system = MimoSystem(3, 4, QamConstellation(16))
        detector = make_detector(name, system, **kwargs)
        channels, received, noise_var = make_workload(system, seed=99)
        reference = per_vector_indices(
            detector, channels, received, noise_var
        )
        engine = make_stack(detector)
        batched = engine.detect_batch(channels, received, noise_var)
        assert np.array_equal(batched.indices, reference)

    def test_cache_disabled_matches_cached(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=24)
        channels, received, noise_var = make_workload(system, seed=3)
        cached = make_stack(detector).detect_batch(
            channels, received, noise_var
        )
        uncached = DetectionService().detect(
            detector, UplinkBatch(channels, received, noise_var), cache=None
        )
        assert np.array_equal(cached.indices, uncached.indices)


class TestSoftEquivalence:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_llrs_match_per_vector(self, order):
        system = MimoSystem(4, 4, QamConstellation(order))
        detector = SoftFlexCoreDetector(system, num_paths=24)
        channels, received, noise_var = make_workload(system, seed=order)
        width = system.num_streams * system.constellation.bits_per_symbol
        ref_llrs = np.empty((NUM_SUBCARRIERS, NUM_FRAMES, width))
        ref_indices = np.empty(
            (NUM_SUBCARRIERS, NUM_FRAMES, system.num_streams), dtype=np.int64
        )
        for sc in range(NUM_SUBCARRIERS):
            for frame in range(NUM_FRAMES):
                result = detector.detect_soft(
                    channels[sc],
                    received[sc, frame : frame + 1],
                    noise_var,
                )
                ref_llrs[sc, frame] = result.llrs[0]
                ref_indices[sc, frame] = result.indices[0]
        engine = make_stack(detector)
        batched = engine.detect_batch(
            channels, received, noise_var, use_soft=True
        )
        assert np.array_equal(batched.indices, ref_indices)
        assert np.array_equal(batched.llrs, ref_llrs)

    def test_hard_detector_rejects_soft(self):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = make_detector("mmse", system)
        channels, received, noise_var = make_workload(system, seed=1)
        engine = make_stack(detector)
        with pytest.raises(Exception, match="soft"):
            engine.detect_batch(channels, received, noise_var, use_soft=True)


class TestBatchValidation:
    def test_mismatched_blocks_rejected(self):
        with pytest.raises(DimensionError):
            UplinkBatch(
                channels=np.zeros((4, 3, 3), dtype=complex),
                received=np.zeros((5, 2, 3), dtype=complex),
                noise_var=0.1,
            )

    def test_antenna_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            UplinkBatch(
                channels=np.zeros((4, 3, 3), dtype=complex),
                received=np.zeros((4, 2, 5), dtype=complex),
                noise_var=0.1,
            )

    def test_one_key_per_channel(self):
        with pytest.raises(DimensionError, match="3 context keys for 4"):
            UplinkBatch(
                channels=np.zeros((4, 3, 3), dtype=complex),
                received=np.zeros((4, 2, 3), dtype=complex),
                noise_var=0.1,
                keys=[b"a", b"b", b"c"],
            )

    def test_single_frame_promoted(self):
        batch = UplinkBatch(
            channels=np.zeros((4, 3, 2), dtype=complex),
            received=np.zeros((4, 3), dtype=complex),
            noise_var=0.1,
        )
        assert batch.num_frames == 1
        assert batch.num_streams == 2

    def test_engine_rejects_foreign_system(self):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        engine = make_stack(detector)
        with pytest.raises(ConfigurationError):
            engine.detect_batch(
                np.zeros((2, 5, 5), dtype=complex),
                np.zeros((2, 1, 5), dtype=complex),
                0.1,
            )

    def test_engine_rejects_non_detector(self):
        with pytest.raises(ConfigurationError):
            make_stack(object())
