"""Device residency for the array backend: zero warm-path uploads.

The tentpole contract, pinned with the transfer-counting module
(:class:`~repro.utils.xp.CountingArrayModule`) as the fake device:

* a warm :class:`~repro.runtime.cache.ContextCache` hit uploads **zero**
  context bytes — the call moves ``received`` up and the results down,
  nothing else;
* governor path budgets (``max_paths``) slice the resident stacks
  (views) and never trigger a re-upload, never mutate a cached context;
* residency follows the coherence cache: an evicted channel is
  re-uploaded exactly once on return, a cached one never, and a plan
  dies with the prepared block it lives on;
* results stay bit-identical to the serial backend across hard/soft ×
  governed/ungoverned.
"""

import copy
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BackendSpec
from repro.channel.fading import rayleigh_channels
from repro.errors import ConfigurationError
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import (
    PLAN_COVER,
    FlexCoreDetector,
    WalkWorkspace,
    _StackedContexts,
)
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.obs import (
    FlushLedger,
    MetricsRegistry,
    cell_summaries,
    scheduler_summary,
)
from repro.runtime import (
    ArrayBackend,
    CacheStats,
    ContextCache,
    CountingArrayModule,
    DetectionService,
    ResidencyStats,
    ResidentContextStore,
    TransferStats,
    UplinkBatch,
)
from repro.runtime.scheduler import FlushRecord

NUM_FRAMES = 4


def make_workload(system, seed, num_subcarriers=6, snr_db=16.0):
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


def counting_backend():
    """An array backend metering its transfers."""
    module = CountingArrayModule("numpy")
    return ArrayBackend(array_module=module), module


# ----------------------------------------------------------------------
# The resident store itself
# ----------------------------------------------------------------------
class TestResidentContextStore:
    def test_builds_once_then_hits(self):
        store = ResidentContextStore()
        plans = {}
        builds = []

        def build():
            builds.append(1)
            return "payload"

        assert store.plan(plans, "group", build) == "payload"
        assert store.plan(plans, "group", build) == "payload"
        assert len(builds) == 1
        assert plans == {"group": "payload"}
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_stats_since(self):
        store = ResidentContextStore()
        before = store.stats
        store.plan({}, "group", lambda: 1)
        delta = store.stats.since(before)
        assert delta.misses == 1 and delta.hits == 0
        assert delta == ResidencyStats(hits=0, misses=1, invalidations=0)


class TestPlansDieWithTheirBlocks:
    def test_no_plan_outlives_its_block(self):
        """Cold blocks cycling through twice the cache's capacity: the only
        walk plans left are those of the blocks the cache still holds."""
        def plans():
            gc.collect()
            return [obj for obj in gc.get_objects() if isinstance(obj, _StackedContexts)]

        # Held, so their ids stay theirs: plans other tests left alive.
        before = plans()
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=8)
        service = DetectionService(ArrayBackend())
        cache = ContextCache(max_entries=12)
        for seed in range(4):
            channels, received, noise_var = make_workload(system, seed)
            result = service.detect(
                detector, UplinkBatch(channels, received, noise_var), cache=cache
            )
            assert result.stats["resident"].misses == 1
        del result
        existing = {id(plan) for plan in before}
        # The last two 6-channel blocks, one equal-path group each.
        assert len([plan for plan in plans() if id(plan) not in existing]) == 2


class TestSelectionsOfACachedBlock:
    def test_flush_shapes_keep_their_plans_and_entries(self):
        """A streaming cell's flushes draw one cached block's rows in
        several shapes — the block, the block twice over, its rows
        reversed.  Each shape builds its plan once on the block; a shape
        seen before uploads only ``received``, and no shape moves the
        cache's entries off the block."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=16)
        channels, received, noise_var = make_workload(system, seed=41)
        backend, _ = counting_backend()
        service = DetectionService(backend)
        cache = ContextCache()
        shapes = [np.arange(6), np.tile(np.arange(6), 2), np.arange(6)[::-1]]
        for cycle in range(2):
            for rows in shapes:
                batch = UplinkBatch(channels[rows], received[rows], noise_var)
                result = service.detect(detector, batch, cache=cache)
                serial = DetectionService("serial").detect(
                    detector, batch, cache=ContextCache()
                )
                assert np.array_equal(result.indices, serial.indices)
                assert result.stats["resident"].misses == 1 - cycle
                if cycle:
                    assert result.stats["transfers"].uploads == 1
        assert len({id(block) for block, _ in cache._entries.values()}) == 1


    def test_many_shapes_stay_within_the_cover_bound(self):
        """Every flush a new shape: the block's plans never cover more
        than ``PLAN_COVER`` times its rows."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=16)
        channels, received, noise_var = make_workload(system, seed=42)
        service = DetectionService(ArrayBackend())
        cache = ContextCache()
        rng = np.random.default_rng(0)
        for _ in range(30):
            rows = rng.permutation(6)
            batch = UplinkBatch(channels[rows], received[rows], noise_var)
            service.detect(detector, batch, cache=cache)
            ((held, _),) = {id(entry[0]): entry for entry in cache._entries.values()}.values()
            block = held.sequence
            covered = sum(len(plan.weights) for plan in block.plans.values())
            assert covered <= PLAN_COVER * len(block)


# ----------------------------------------------------------------------
# Warm-path transfer accounting (the acceptance criterion)
# ----------------------------------------------------------------------
class TestWarmPathZeroUploads:
    def setup_method(self):
        self.system = MimoSystem(4, 4, QamConstellation(16))

    def detect(self, service, detector, batch, cache, **kwargs):
        return service.detect(detector, batch, cache=cache, **kwargs)

    def test_hard_warm_hit_uploads_received_only(self):
        detector = FlexCoreDetector(self.system, num_paths=16)
        channels, received, noise_var = make_workload(self.system, seed=1)
        batch = UplinkBatch(channels, received, noise_var)
        backend, _ = counting_backend()
        service = DetectionService(backend)
        cache = ContextCache()
        serial = DetectionService("serial").detect(
            detector, batch, cache=ContextCache()
        )

        cold = self.detect(service, detector, batch, cache)
        cold_transfers = cold.stats["transfers"]
        # Cold: received plus the six stacked context tensors (plus
        # first-touch device constants).
        assert cold_transfers.upload_bytes > received.nbytes
        assert cold.stats["resident"].misses >= 1

        warm = self.detect(service, detector, batch, cache)
        transfers = warm.stats["transfers"]
        # The pinned claim: zero context bytes on a warm hit — the one
        # upload is `received`, byte for byte.
        assert transfers.uploads == 1
        assert transfers.upload_bytes == received.nbytes
        # One result download plus the per-group deactivation counters.
        assert transfers.downloads == 2
        assert warm.stats["resident"].hits == 1
        assert warm.stats["resident"].misses == 0
        assert np.array_equal(warm.indices, serial.indices)
        assert warm.per_subcarrier_metadata == serial.per_subcarrier_metadata

    def test_soft_warm_hit_uploads_received_only(self):
        detector = SoftFlexCoreDetector(self.system, num_paths=16)
        channels, received, noise_var = make_workload(self.system, seed=2)
        batch = UplinkBatch(channels, received, noise_var)
        backend, _ = counting_backend()
        service = DetectionService(backend)
        cache = ContextCache()
        serial = DetectionService("serial").detect(
            detector, batch, cache=ContextCache(), use_soft=True
        )

        self.detect(service, detector, batch, cache, use_soft=True)
        warm = self.detect(service, detector, batch, cache, use_soft=True)
        transfers = warm.stats["transfers"]
        assert transfers.uploads == 1
        assert transfers.upload_bytes == received.nbytes
        # indices + llrs + the per-group clamped-bit counters.
        assert transfers.downloads == 3
        assert np.array_equal(warm.indices, serial.indices)
        assert np.array_equal(warm.llrs, serial.llrs)

    @pytest.mark.parametrize("use_soft", [False, True])
    def test_governed_clamp_causes_no_reupload(self, use_soft):
        detector = SoftFlexCoreDetector(self.system, num_paths=16)
        channels, received, noise_var = make_workload(self.system, seed=3)
        batch = UplinkBatch(channels, received, noise_var)
        backend, _ = counting_backend()
        service = DetectionService(backend)
        cache = ContextCache()
        self.detect(service, detector, batch, cache, use_soft=use_soft)

        # An AIMD-like budget sweep: every governed warm call still
        # uploads exactly `received` and serves the stack residently.
        for budget in (16, 4, 9, 1, 16):
            serial = DetectionService("serial").detect(
                detector,
                batch,
                cache=ContextCache(),
                use_soft=use_soft,
                max_paths=budget,
            )
            result = self.detect(
                service,
                detector,
                batch,
                cache,
                use_soft=use_soft,
                max_paths=budget,
            )
            transfers = result.stats["transfers"]
            assert transfers.uploads == 1, f"budget {budget} re-uploaded"
            assert transfers.upload_bytes == received.nbytes
            assert result.stats["resident"].hits >= 1
            assert result.stats["resident"].misses == 0
            assert np.array_equal(result.indices, serial.indices)
            if use_soft:
                assert np.array_equal(result.llrs, serial.llrs)
            assert (
                result.per_subcarrier_metadata
                == serial.per_subcarrier_metadata
            )

    def test_adaptive_mixed_groups_stay_resident(self):
        detector = AdaptiveFlexCoreDetector(
            self.system, num_paths=24, probability_target=0.9
        )
        channels, received, noise_var = make_workload(self.system, seed=4)
        batch = UplinkBatch(channels, received, noise_var)
        backend, _ = counting_backend()
        service = DetectionService(backend)
        cache = ContextCache()
        cold = self.detect(service, detector, batch, cache)
        groups = cold.stats["resident"].misses
        assert groups >= 1
        warm = self.detect(service, detector, batch, cache, max_paths=7)
        serial = DetectionService("serial").detect(
            detector, batch, cache=ContextCache(), max_paths=7
        )
        assert warm.stats["transfers"].uploads == 1
        assert warm.stats["resident"].hits == groups
        assert np.array_equal(warm.indices, serial.indices)
        assert warm.per_subcarrier_metadata == serial.per_subcarrier_metadata

    def test_residency_off_reuploads_but_matches(self):
        """A kernel call without the resident store re-uploads the stack."""
        detector = FlexCoreDetector(self.system, num_paths=16)
        channels, received, noise_var = make_workload(self.system, seed=5)
        contexts = detector.prepare_many(channels, noise_var)
        xp, store = CountingArrayModule("numpy"), ResidentContextStore()
        stored = detector.detect_block_prepared(contexts, received, xp=xp, store=store)
        warm = detector.detect_block_prepared(contexts, received, xp=xp, store=store)
        before = xp.transfer_stats()
        alone = detector.detect_block_prepared(contexts, received, xp=xp, store=None)
        uploads = xp.transfer_stats().since(before).uploads
        # Without the store the call re-uploads the whole stack: the six
        # context arrays of its one group besides ``received``.
        assert uploads == 1 + 6
        for result in (warm, alone):
            assert np.array_equal(result[0], stored[0]) and result[1] == stored[1]


# ----------------------------------------------------------------------
# Budget slice ≡ re-prepared smaller stack (kernel level)
# ----------------------------------------------------------------------
class TestBudgetSliceEquivalence:
    def setup_method(self):
        self.system = MimoSystem(4, 4, QamConstellation(16))

    def prepared(self, detector, seed):
        channels, received, noise_var = make_workload(self.system, seed=seed)
        contexts = [
            detector.prepare(channels[sc], noise_var)
            for sc in range(channels.shape[0])
        ]
        return contexts, received, noise_var

    def clamped(self, contexts, k):
        out = []
        for context in contexts:
            clone = copy.copy(context)
            clone.active_paths = min(clone.active_paths, k)
            out.append(clone)
        return out

    @pytest.mark.parametrize("budget", [1, 5, 16])
    def test_hard_slice_matches_reprepared_stack(self, budget):
        detector = FlexCoreDetector(self.system, num_paths=16)
        contexts, received, _ = self.prepared(detector, seed=11)
        xp = CountingArrayModule("numpy")
        store = ResidentContextStore()
        # Warm the store at the full path count...
        detector.detect_block_prepared(contexts, received, xp=xp, store=store)
        # ...then budget-slice the resident stack,
        sliced, meta_sliced = detector.detect_block_prepared(
            contexts, received, xp=xp, store=store, max_paths=budget
        )
        # versus stacks built from scratch from clamped contexts.
        rebuilt, meta_rebuilt = detector.detect_block_prepared(
            self.clamped(contexts, budget), received, xp=xp
        )
        assert np.array_equal(sliced, rebuilt)
        assert meta_sliced == meta_rebuilt

    @pytest.mark.parametrize("budget", [1, 5, 16])
    def test_soft_slice_matches_reprepared_stack(self, budget):
        detector = SoftFlexCoreDetector(self.system, num_paths=16)
        contexts, received, noise_var = self.prepared(detector, seed=12)
        xp = CountingArrayModule("numpy")
        store = ResidentContextStore()
        detector.detect_soft_block_prepared(
            contexts, received, noise_var, xp=xp, store=store
        )
        sliced, llrs_sliced, meta_sliced = (
            detector.detect_soft_block_prepared(
                contexts,
                received,
                noise_var,
                xp=xp,
                store=store,
                max_paths=budget,
            )
        )
        rebuilt, llrs_rebuilt, meta_rebuilt = (
            detector.detect_soft_block_prepared(
                self.clamped(contexts, budget), received, noise_var, xp=xp
            )
        )
        assert np.array_equal(sliced, rebuilt)
        assert np.array_equal(llrs_sliced, llrs_rebuilt)
        assert meta_sliced == meta_rebuilt


# ----------------------------------------------------------------------
# Cached contexts are never mutated (satellite regression)
# ----------------------------------------------------------------------
class TestCachedContextsNeverMutated:
    def setup_method(self):
        self.system = MimoSystem(4, 4, QamConstellation(16))
        self.detector = FlexCoreDetector(self.system, num_paths=16)
        self.channels, self.received, self.noise_var = make_workload(
            self.system, seed=21
        )
        self.batch = UplinkBatch(self.channels, self.received, self.noise_var)

    def assert_cache_untouched(self, cache):
        for sc in range(self.channels.shape[0]):
            context = cache.get_or_prepare(
                self.detector, self.channels[sc], self.noise_var
            )
            assert context.active_paths == 16
            assert context.position_vectors.shape[0] == 16

    def test_stacked_governed_call_leaves_cache_untouched(self):
        service = DetectionService(ArrayBackend())
        cache = ContextCache()
        service.detect(self.detector, self.batch, cache=cache, max_paths=3)
        service.detect(self.detector, self.batch, cache=cache, max_paths=3)
        self.assert_cache_untouched(cache)

    def test_fallback_clamps_once_and_leaves_cache_untouched(self):
        # A detector without the block kernel drives the per-subcarrier
        # fallback, whose single clamp lives in _detect_block.
        class NoKernel(FlexCoreDetector):
            detect_block_prepared = None

        detector = NoKernel(self.system, num_paths=16)
        service = DetectionService(ArrayBackend())
        cache = ContextCache()
        result = service.detect(detector, self.batch, cache=cache, max_paths=3)
        assert not result.stats["stacked"]
        serial = DetectionService("serial").detect(
            detector, self.batch, cache=ContextCache(), max_paths=3
        )
        assert np.array_equal(result.indices, serial.indices)
        assert all(
            meta["paths"] == 3 for meta in result.per_subcarrier_metadata
        )
        for sc in range(self.channels.shape[0]):
            context = cache.get_or_prepare(
                detector, self.channels[sc], self.noise_var
            )
            assert context.active_paths == 16


# ----------------------------------------------------------------------
# Invalidation property: evict → re-upload once, hit → zero uploads
# ----------------------------------------------------------------------
class TestInvalidationProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        sequence=st.lists(
            st.integers(min_value=0, max_value=4), min_size=2, max_size=14
        ),
    )
    def test_uploads_track_cache_movement(self, capacity, sequence):
        system = MimoSystem(4, 4, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=8)
        channels, received, noise_var = make_workload(
            system, seed=99, num_subcarriers=5
        )
        module = CountingArrayModule("numpy")
        service = DetectionService(ArrayBackend(array_module=module))
        cache = ContextCache(max_entries=capacity)
        # Prime the per-module device constants (LUT, points, Gray
        # tables) so the replayed calls meter contexts + received only.
        prime = UplinkBatch(channels[:1], received[:1], noise_var)
        service.detect(detector, prime, cache=ContextCache())

        single_nbytes = received[:1].nbytes
        for key in sequence:
            batch = UplinkBatch(
                channels[key : key + 1], received[key : key + 1], noise_var
            )
            result = service.detect(detector, batch, cache=cache)
            transfers = result.stats["transfers"]
            cache_delta = result.stats["cache"]
            if cache_delta.misses == 0:
                # Coherence hit: the context is resident — zero context
                # bytes move, only `received`.
                assert transfers.uploads == 1
                assert transfers.upload_bytes == single_nbytes
            else:
                # Evicted (or first-seen) channel: the stack re-uploads
                # exactly once — six tensors on top of `received`.
                assert cache_delta.misses == 1
                assert transfers.uploads == 1 + 6
                assert result.stats["resident"].misses == 1


# ----------------------------------------------------------------------
# Spec / telemetry plumbing
# ----------------------------------------------------------------------
class TestBackendSpecResidency:
    def test_array_backend_resident_by_default(self):
        backend = BackendSpec("array").build()
        assert isinstance(backend.resident_store, ResidentContextStore)

    def test_residency_rejected_off_the_array_backend(self):
        with pytest.raises(ConfigurationError, match="residency"):
            BackendSpec.from_dict({"name": "serial", "residency": True})

    def test_round_trips_through_dict(self):
        spec = BackendSpec("array")
        assert BackendSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"name": "array"}

    def test_close_drops_the_workspace(self):
        backend = BackendSpec("array").build()
        first = backend.resident_store.scratch(WalkWorkspace)
        backend.close()
        assert backend.resident_store.scratch(WalkWorkspace) is not first


class TestTransferTelemetry:
    def flush_record(self):
        return FlushRecord(
            cell="cell-0",
            reason="deadline",
            subcarriers=2,
            frames=4,
            first_arrival_s=0.0,
            flushed_s=0.001,
            completed_s=0.002,
            deadline_s=0.01,
        )

    def test_cell_stats_accumulate_transfers(self):
        ledger = FlushLedger()
        delta = TransferStats(uploads=2, upload_bytes=128, downloads=1,
                              download_bytes=64)
        ledger.account(self.flush_record(), 2, 0, CacheStats(), delta)
        ledger.account(self.flush_record(), 2, 0, CacheStats(), delta)
        transfers = cell_summaries(ledger.metrics)["cell-0"]["transfers"]
        assert transfers["uploads"] == 4
        assert transfers["download_bytes"] == 128
        assert transfers["upload_bytes"] == 256

    def test_cell_stats_stay_lean_without_metering(self):
        ledger = FlushLedger()
        ledger.account(self.flush_record(), 2, 0, CacheStats())
        assert "transfers" not in cell_summaries(ledger.metrics)["cell-0"]

    def test_scheduler_telemetry_counts_and_merges(self):
        ledger = FlushLedger()
        delta = TransferStats(uploads=3, upload_bytes=300, downloads=2,
                              download_bytes=200)
        ledger.account(self.flush_record(), 2, 0, CacheStats(), delta)
        payload = scheduler_summary(ledger.metrics)
        assert payload["uploads"] == 3
        assert payload["download_bytes"] == 200
        merged = MetricsRegistry()
        merged.merge_dict(ledger.metrics.to_dict())
        merged.merge_dict(ledger.metrics.to_dict())
        assert scheduler_summary(merged)["uploads"] == 6
        assert scheduler_summary(merged)["upload_bytes"] == 600

    def test_runtime_stats_expose_resident_and_transfers(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=8)
        channels, received, noise_var = make_workload(system, seed=31)
        batch = UplinkBatch(channels, received, noise_var)
        backend, _ = counting_backend()
        result = DetectionService(backend).detect(
            detector, batch, cache=ContextCache()
        )
        assert isinstance(result.stats["transfers"], TransferStats)
        assert result.stats["resident"].misses >= 1
        # Plain modules stay lean: no transfer key without metering.
        plain = DetectionService(ArrayBackend()).detect(
            detector, batch, cache=ContextCache()
        )
        assert "transfers" not in plain.stats
        assert "resident" in plain.stats
