"""The stacked tensor-walk (``array``) backend vs the serial loop.

The array backend's contract is strict: its output — hard indices,
soft LLRs, per-subcarrier metadata, cache statistics and charged FLOPs
— is *bit-identical* to the per-subcarrier serial path, across QAM
orders, QR methods, path counts and the chunking boundary.
"""

import pickle

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channels
from repro.detectors.registry import make_detector
from repro.errors import ConfigurationError
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.ordering import TriangleOrdering
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.runtime import (
    ArrayBackend,
    ContextCache,
    DetectionService,
    UplinkBatch,
    make_backend,
    resolve_array_module,
)
from repro.utils.flops import FlopCounter
from repro.utils.xp import (
    CountingArrayModule,
    DeviceConstantCache,
    TransferStats,
    default_array_module,
)
from tests.conftest import make_stack

NUM_SUBCARRIERS = 6
NUM_FRAMES = 4


def make_workload(system, seed, snr_db=16.0, num_subcarriers=NUM_SUBCARRIERS):
    rng = np.random.default_rng(seed)
    channels = rayleigh_channels(
        num_subcarriers, system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    received = np.empty(
        (num_subcarriers, NUM_FRAMES, system.num_rx_antennas),
        dtype=np.complex128,
    )
    for sc in range(num_subcarriers):
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


def counters_equal(a: FlopCounter, b: FlopCounter) -> bool:
    return (
        a.real_mults == b.real_mults
        and a.real_adds == b.real_adds
        and a.comparisons == b.comparisons
        and a.nodes_visited == b.nodes_visited
    )


class TestArrayBackendEquivalence:
    @pytest.mark.parametrize("order", [4, 16, 64])
    @pytest.mark.parametrize("qr_method", ["sorted", "fcsd", "plain"])
    def test_qam_and_qr_sweep_bit_match(self, order, qr_method):
        system = MimoSystem(4, 4, QamConstellation(order))
        detector = FlexCoreDetector(system, num_paths=16, qr_method=qr_method)
        channels, received, noise_var = make_workload(system, seed=order)
        serial = make_stack(detector).detect_batch(
            channels, received, noise_var
        )
        array = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var
        )
        assert array.stats["stacked"]
        assert np.array_equal(array.indices, serial.indices)
        assert (
            array.per_subcarrier_metadata == serial.per_subcarrier_metadata
        )

    @pytest.mark.parametrize("num_paths", [1, 7, 48, 196])
    def test_path_count_sweep_bit_match(self, num_paths):
        system = MimoSystem(4, 6, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=num_paths)
        channels, received, noise_var = make_workload(system, seed=num_paths)
        serial = make_stack(detector).detect_batch(
            channels, received, noise_var
        )
        array = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var
        )
        assert np.array_equal(array.indices, serial.indices)

    def test_soft_llrs_bit_match(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = SoftFlexCoreDetector(system, num_paths=24)
        channels, received, noise_var = make_workload(system, seed=3)
        serial = make_stack(detector).detect_batch(
            channels, received, noise_var, use_soft=True
        )
        array = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var, use_soft=True
        )
        assert np.array_equal(array.indices, serial.indices)
        assert np.array_equal(array.llrs, serial.llrs)
        assert (
            array.per_subcarrier_metadata == serial.per_subcarrier_metadata
        )

    def test_exact_ordering_ablation_bit_match(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(
            system, num_paths=24, use_exact_ordering=True
        )
        channels, received, noise_var = make_workload(system, seed=9)
        serial = make_stack(detector).detect_batch(
            channels, received, noise_var
        )
        array = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var
        )
        assert np.array_equal(array.indices, serial.indices)

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize("use_soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("max_paths", [None, 5])
    def test_one_route_two_kernels_agree(self, cached, use_soft, max_paths):
        """``DetectionService._detect`` branches once, on ``stacked``:
        everything either side of that branch reports must agree."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = SoftFlexCoreDetector(system, num_paths=12)
        batch = UplinkBatch(*make_workload(system, seed=23))
        results, counters = {}, {}
        for backend in ("serial", "array"):
            counters[backend] = FlopCounter()
            results[backend] = DetectionService(backend).detect(
                detector,
                batch,
                cache=ContextCache() if cached else None,
                counter=counters[backend],
                use_soft=use_soft,
                max_paths=max_paths,
            )
        serial, array = results["serial"], results["array"]
        assert array.stats["stacked"] and not serial.stats["stacked"]
        assert np.array_equal(array.indices, serial.indices)
        if use_soft:
            assert np.array_equal(array.llrs, serial.llrs)
        else:
            assert array.llrs is None and serial.llrs is None
        assert array.per_subcarrier_metadata == serial.per_subcarrier_metadata
        assert counters_equal(counters["array"], counters["serial"])
        assert counters["serial"].real_mults > 0
        assert array.stats["cache"] == serial.stats["cache"]
        assert set(array.stats) - set(serial.stats) == {"resident"}
        assert not set(serial.stats) - set(array.stats)
        assert ("path_budget" in serial.stats) == (max_paths is not None)

    def test_adaptive_mixed_path_groups(self):
        """a-FlexCore trims per-channel active sets, so the block splits
        into several (G, F, P, Nt) groups; output must still bit-match."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = AdaptiveFlexCoreDetector(system, num_paths=32)
        channels, received, noise_var = make_workload(system, seed=11)
        serial = make_stack(detector).detect_batch(
            channels, received, noise_var
        )
        array = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var
        )
        assert np.array_equal(array.indices, serial.indices)
        assert (
            array.per_subcarrier_metadata == serial.per_subcarrier_metadata
        )

    @pytest.mark.parametrize(
        "name, params",
        [("fcsd", {}), ("fcsd", {"num_expanded": 2, "qr_method": "sorted"}), ("sic", {})],
    )
    def test_fcsd_and_sic_take_the_stacked_route(self, name, params):
        """FCSD and SIC are walk plans: the array backend walks them
        stacked, bit for bit the serial backend's per-subcarrier loop,
        metadata and FLOPs included."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = make_detector(name, system, **params)
        channels, received, noise_var = make_workload(system, seed=29)
        counters = FlopCounter(), FlopCounter()
        serial = make_stack(detector).detect_batch(
            channels, received, noise_var, counter=counters[0]
        )
        array = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var, counter=counters[1]
        )
        assert array.stats["stacked"] and not serial.stats["stacked"]
        assert np.array_equal(array.indices, serial.indices)
        assert array.per_subcarrier_metadata == serial.per_subcarrier_metadata
        assert counters_equal(*counters) and counters[0].real_mults > 0

    def test_non_block_detector_falls_back(self):
        system = MimoSystem(3, 4, QamConstellation(16))
        detector = make_detector("mmse", system)
        channels, received, noise_var = make_workload(system, seed=13)
        serial = make_stack(detector).detect_batch(
            channels, received, noise_var
        )
        array = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var
        )
        assert not array.stats["stacked"]
        assert np.array_equal(array.indices, serial.indices)

    def test_cache_disabled_matches(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=12)
        channels, received, noise_var = make_workload(system, seed=17)
        cached = make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var
        )
        uncached = DetectionService("array").detect(
            detector, UplinkBatch(channels, received, noise_var), cache=None
        )
        assert np.array_equal(cached.indices, uncached.indices)

    def test_cache_statistics_match_serial(self):
        """Coherent duplicates must produce the same hit/miss accounting
        on the block-prepare path as on the per-subcarrier path."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=8)
        channels, received, noise_var = make_workload(system, seed=19)
        # Duplicate channels: half the block is coherent repeats.
        channels = np.concatenate([channels, channels[:3]], axis=0)
        received = np.concatenate([received, received[:3]], axis=0)
        serial_engine = make_stack(detector)
        serial = serial_engine.detect_batch(channels, received, noise_var)
        array_engine = make_stack(detector, backend="array")
        array = array_engine.detect_batch(channels, received, noise_var)
        assert array.stats["cache"].hits == serial.stats["cache"].hits == 3
        assert (
            array.stats["cache"].misses
            == serial.stats["cache"].misses
            == NUM_SUBCARRIERS
        )
        assert array_engine.cache_stats == serial_engine.cache_stats
        assert np.array_equal(array.indices, serial.indices)


class TestFlopParity:
    """Satellite regression: per-batch FLOP totals of the stacked path
    match the per-subcarrier loop exactly."""

    def test_hard_path_counters_match(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=16)
        channels, received, noise_var = make_workload(system, seed=23)
        serial_counter, array_counter = FlopCounter(), FlopCounter()
        make_stack(detector).detect_batch(
            channels, received, noise_var, counter=serial_counter
        )
        make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var, counter=array_counter
        )
        assert counters_equal(serial_counter, array_counter)

    def test_soft_path_counters_match(self):
        system = MimoSystem(3, 3, QamConstellation(16))
        detector = SoftFlexCoreDetector(system, num_paths=12)
        channels, received, noise_var = make_workload(system, seed=29)
        serial_counter, array_counter = FlopCounter(), FlopCounter()
        make_stack(detector).detect_batch(
            channels, received, noise_var, counter=serial_counter,
            use_soft=True,
        )
        make_stack(detector, backend="array").detect_batch(
            channels, received, noise_var, counter=array_counter,
            use_soft=True,
        )
        assert counters_equal(serial_counter, array_counter)

    def test_uncached_prepare_counters_match(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=8, qr_method="fcsd")
        channels, received, noise_var = make_workload(system, seed=31)
        serial_counter, array_counter = FlopCounter(), FlopCounter()
        batch = UplinkBatch(channels, received, noise_var)
        DetectionService().detect(detector, batch, cache=None, counter=serial_counter)
        DetectionService("array").detect(
            detector, batch, cache=None, counter=array_counter
        )
        assert counters_equal(serial_counter, array_counter)

    @pytest.mark.parametrize("name", ["flexcore", "a-flexcore", "soft-flexcore"])
    def test_block_kernel_matches_serial_loop(self, name):
        """Every registry detector with a block kernel: the array
        service routes through the stacked kernel; indices, metadata
        and FLOPs must equal the serial per-channel loop it replaces."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = make_detector(name, system, num_paths=12)
        channels, received, noise_var = make_workload(system, seed=37)
        assert detector.has_block_kernel
        batch = UplinkBatch(channels, received, noise_var)
        serial_counter, array_counter = FlopCounter(), FlopCounter()
        serial = DetectionService("serial").detect(
            detector, batch, cache=None, counter=serial_counter
        )
        routed = DetectionService("array").detect(
            detector, batch, cache=None, counter=array_counter
        )
        assert counters_equal(serial_counter, array_counter)
        assert np.array_equal(serial.indices, routed.indices)
        assert serial.per_subcarrier_metadata == routed.per_subcarrier_metadata

    @pytest.mark.parametrize("name", ["zf", "mmse", "ml", "sphere", "trellis"])
    def test_third_party_detector_uses_documented_fallback(self, name):
        """Every registry baseline without a block kernel: the array
        service runs the per-channel loop."""
        system = MimoSystem(3, 4, QamConstellation(16))
        detector = make_detector(name, system)
        assert not detector.has_block_kernel
        channels, received, noise_var = make_workload(system, seed=41)
        result = DetectionService("array").detect(
            detector, UplinkBatch(channels, received, noise_var), cache=None
        )
        for c in range(channels.shape[0]):
            reference = detector.detect(channels[c], received[c], noise_var)
            assert np.array_equal(result.indices[c], reference.indices)


class TestTheNumpyModule:
    """What the kernels and the residency accounting rely on: numpy's
    rounding, transfers metered at the host boundary, constants
    uploaded once."""

    def test_round_is_ties_to_even(self):
        """The slicer's detection-square centre is ``2 * rint(z / 2)``,
        as ``walk.c`` rounds it: on the odd grid every coordinate is a
        tie, and it goes to the even square (±1 → 0, 5 → 4), where
        half-away-from-zero would take ±2 and 6."""
        constellation = QamConstellation(64)
        ordering = TriangleOrdering(constellation)
        for axis, centre in [(1, 0), (-1, 0), (3, 4), (5, 4), (-5, -4)]:
            point = constellation.points[constellation.grid_to_index(axis, axis)]
            assert point.real / constellation.scale == axis  # an exact tie
            picks = constellation.points[
                ordering.kth_symbol_indices(np.full(4, point), np.arange(1, 5))
            ] / constellation.scale
            assert set(np.rint(picks.real)) == set(np.rint(picks.imag)) == {centre - 1, centre + 1}

    @pytest.mark.parametrize(
        "dtype", [np.complex128, np.complex64, np.float64, np.float32, np.int64, np.int8, np.bool_]
    )
    def test_an_upload_meters_its_host_bytes(self, dtype):
        """One upload per host array, of its own bytes whatever it is
        cast to; a Python scalar crosses unmetered; a download meters
        what lands on the host."""
        xp = CountingArrayModule("numpy")
        host = np.ones((3, 5), dtype=dtype)
        device = xp.asarray(host, dtype=np.complex128)
        xp.asarray(1.5)
        assert xp.transfer_stats() == TransferStats(1, host.nbytes, 0, 0)
        xp.to_numpy(device[0])
        assert xp.transfer_stats().since(TransferStats(1, host.nbytes, 0, 0)) == (
            TransferStats(0, 0, 1, 5 * 16)
        )

    def test_only_the_host_boundary_is_metered(self):
        xp = CountingArrayModule("numpy")
        host = np.arange(6.0)
        device = xp.asarray(host)
        xp.asarray(3.0)
        assert (xp.uploads, xp.upload_bytes, xp.downloads) == (1, 48, 0)
        assert xp.transfer_stats() == TransferStats(1, 48, 0, 0)
        xp.to_numpy(device[:2])
        assert (xp.downloads, xp.download_bytes) == (1, 16)
        assert resolve_array_module("numpy").transfer_stats() is None

    def test_a_device_constant_uploads_once_per_module(self):
        table = np.arange(4.0)
        cache, xp, other = DeviceConstantCache(), CountingArrayModule(), CountingArrayModule()
        assert cache.get(xp, table) is cache.get(xp, table)
        cache.get(other, table)
        assert xp.uploads == other.uploads == 1
        # Device copies are per-process: the cache pickles empty.
        again = pickle.loads(pickle.dumps(cache))
        again.get(xp, table)
        assert xp.uploads == 2


class TestModuleResolution:
    def test_numpy_is_default(self):
        assert resolve_array_module(None).name == "numpy"
        assert make_backend("array").array_module.name == "numpy"

    def test_numpy_always_available(self):
        assert resolve_array_module("numpy") is default_array_module()
        assert CountingArrayModule("numpy").inner is default_array_module()

    @pytest.mark.parametrize(
        "spec", ["jax", "NumPy", "", 0, object()], ids=["jax", "NumPy", "empty", "zero", "object"]
    )
    def test_anything_but_numpy_is_refused(self, spec):
        with pytest.raises(ConfigurationError, match="numpy is the only one"):
            resolve_array_module(spec)

    def test_backend_accepts_prebuilt_module(self):
        backend = ArrayBackend(array_module="numpy")
        assert make_backend(backend) is backend
