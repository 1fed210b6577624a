"""Tests for the coherence context cache, backends, and runtime plumbing."""

import weakref
from collections import Counter, OrderedDict
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GovernorSpec
from repro.channel.fading import rayleigh_channel, rayleigh_channels
from repro.channel.testbed import IndoorTestbed
from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.preprocessing import PreparedBlock
from repro.link.channels import testbed_sampler
from repro.link.config import LinkConfig
from repro.link.simulation import simulate_link
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime import (
    CacheStats,
    ContextCache,
    DetectionService,
    SerialBackend,
    UplinkBatch,
    available_backends,
    block_context_keys,
    context_key,
    make_backend,
)
from repro.runtime import cache as runtime_cache
from repro.runtime import scheduler as runtime_scheduler
from repro.utils.flops import FlopCounter
from tests.conftest import make_stack


@pytest.fixture
def system():
    return MimoSystem(3, 3, QamConstellation(16))


@pytest.fixture
def detector(system):
    return FlexCoreDetector(system, num_paths=8)


class TestContextKey:
    def test_identical_inputs_collide(self, rng):
        channel = rayleigh_channel(4, 3, rng)
        assert context_key(channel, 0.1) == context_key(channel.copy(), 0.1)

    def test_noise_var_distinguishes(self, rng):
        channel = rayleigh_channel(4, 3, rng)
        assert context_key(channel, 0.1) != context_key(channel, 0.2)

    def test_channel_distinguishes(self, rng):
        a = rayleigh_channel(4, 3, rng)
        b = rayleigh_channel(4, 3, rng)
        assert context_key(a, 0.1) != context_key(b, 0.1)

    def test_dtype_distinguishes_equal_bytes(self, rng):
        """Keys are exact: the same bytes read as another dtype are
        another channel, and another key."""
        channel = rayleigh_channel(4, 4, rng).astype(np.complex64)
        as_real = channel.view(np.float64)
        assert channel.tobytes() == as_real.tobytes()
        assert context_key(channel, 0.1) != context_key(as_real, 0.1)


class TestBlockContextKeys:
    """Block keys are made in one copy and must stay cache-compatible:
    keys byte-identical to ``context_key`` per slice, contiguous or not."""

    def test_byte_identical_to_per_slice_keys(self, rng):
        from repro.runtime import block_context_keys

        channels = rayleigh_channels(7, 4, 3, rng)
        assert channels.flags["C_CONTIGUOUS"]
        expected = [context_key(channels[sc], 0.05) for sc in range(7)]
        assert block_context_keys(channels, 0.05) == expected

    def test_non_contiguous_block_matches_too(self, rng):
        from repro.runtime import block_context_keys

        base = rayleigh_channels(10, 4, 3, rng)
        strided = base[::2]  # non-contiguous view
        assert not strided.flags["C_CONTIGUOUS"]
        expected = [context_key(strided[sc], 0.2) for sc in range(5)]
        assert block_context_keys(strided, 0.2) == expected

    def test_rejects_non_block_input(self, rng):
        from repro.runtime import block_context_keys

        with pytest.raises(ConfigurationError):
            block_context_keys(rayleigh_channel(4, 3, rng), 0.1)


class TestContextCache:
    def test_hit_serves_the_cached_row(self, detector, rng):
        cache = ContextCache()
        channel = rayleigh_channel(3, 3, rng)
        first = cache.get_or_prepare(detector, channel, 0.05)
        second = cache.get_or_prepare(detector, channel, 0.05)
        # The same row of the same prepared block, read again.
        assert (first.block, first.row) == (second.block, second.row)
        assert cache.stats == CacheStats(
            hits=1, misses=1, evictions=0, entries=1
        )
        # Mapping-style access is the deprecated compatibility surface.
        assert cache.stats.hits == 1
        assert cache.stats.as_dict()["entries"] == 1

    def test_lru_eviction(self, detector, rng):
        cache = ContextCache(max_entries=2)
        channels = rayleigh_channels(3, 3, 3, rng)
        for channel in channels:
            cache.get_or_prepare(detector, channel, 0.05)
        assert cache.evictions == 1
        assert len(cache) == 2
        # The oldest entry (channel 0) was evicted; re-preparing it is a
        # miss, while channel 2 is still resident.
        cache.get_or_prepare(detector, channels[2], 0.05)
        assert cache.hits == 1
        cache.get_or_prepare(detector, channels[0], 0.05)
        assert cache.misses == 4

    def test_clear(self, detector, rng):
        cache = ContextCache()
        cache.get_or_prepare(detector, rayleigh_channel(3, 3, rng), 0.05)
        cache.clear()
        assert len(cache) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ContextCache(max_entries=0)

    def test_prepare_flops_skipped_on_hit(self, detector, rng):
        from repro.utils.flops import FlopCounter

        cache = ContextCache()
        channel = rayleigh_channel(3, 3, rng)
        first = FlopCounter()
        cache.get_or_prepare(detector, channel, 0.05, counter=first)
        again = FlopCounter()
        cache.get_or_prepare(detector, channel, 0.05, counter=again)
        assert first.real_mults > 0
        assert again.real_mults == 0


def replay_oracle(detector, capacity):
    """The per-subcarrier cache the block path must match: one LRU
    lookup per channel, keyed by ``(pool row, noise_var)``, each miss
    prepared on its own."""
    lru, stats, counter = OrderedDict(), Counter(), FlopCounter()

    def lookup(pool, row, noise_var):
        key = (row, noise_var)
        if key in lru:
            stats["hits"] += 1
            lru.move_to_end(key)
        else:
            stats["misses"] += 1
            lru[key] = detector.prepare_many(pool[row][None], noise_var, counter=counter)[0]
            if len(lru) > capacity:
                lru.popitem(last=False)
                stats["evictions"] += 1
        return lru[key]

    return lookup, lru, stats, counter


class TestBlockEntries:
    """Entries are rows of prepared blocks: however blocks overlap, the
    rows live blocks hold stay within the capacity plus one block, and
    hits, misses, evictions and FLOPs are the per-subcarrier replay's —
    with keys made by the cache or handed in, blocks repeated exactly,
    keys repeated within a block, capacities below a block and two
    noise variances interleaved."""

    SYSTEM = MimoSystem(2, 2, QamConstellation(4))
    POOL = rayleigh_channels(8, 2, 2, np.random.default_rng(11))

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        batches=st.lists(
            st.tuples(
                st.lists(st.integers(0, 7), min_size=1, max_size=7, unique=True)
                | st.lists(st.integers(0, 7), min_size=1, max_size=7),
                st.sampled_from([0.1, 0.2]),
                st.booleans(),  # hand the cache its keys
                st.none() | st.integers(0, 7),  # repeat an earlier batch exactly
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_bounded_rows_and_replayed_bookkeeping(self, capacity, batches):
        detector = FlexCoreDetector(self.SYSTEM, num_paths=3)
        live = weakref.WeakSet()
        original = PreparedBlock.__init__

        def tracked(self, *args, **kwargs):
            original(self, *args, **kwargs)
            live.add(self)

        cache, counter = ContextCache(capacity), FlopCounter()
        lookup, lru, stats, replay_counter = replay_oracle(detector, capacity)
        largest, history = 0, []
        for rows, noise_var, hand_keys, repeat in batches:
            if repeat is not None and history:
                rows, noise_var = history[repeat % len(history)]
            history.append((rows, noise_var))
            channels = self.POOL[rows]
            keys = None
            if hand_keys:
                keys = block_context_keys(channels, noise_var)
                assert keys == [context_key(channel, noise_var) for channel in channels]
            with mock.patch.object(PreparedBlock, "__init__", tracked):
                block = cache.get_or_prepare_block(
                    detector, channels, noise_var, counter, keys=keys
                )
            for got, row in zip(block, rows):
                want = lookup(self.POOL, row, noise_var)
                assert np.array_equal(got.qr.r, want.qr.r)
                assert np.array_equal(got.position_vectors, want.position_vectors)
            del block, got
            largest = max(largest, len(rows))
            assert sum(len(held) for held in live) <= capacity + largest
            assert cache.stats == CacheStats(entries=len(lru), **stats)
            assert counter == replay_counter

    def test_an_exactly_repeated_block_is_one_lookup(self, detector, rng):
        """The warm steady state: the cached block comes back as it is,
        without the per-subcarrier replay."""
        channels = rayleigh_channels(5, 3, 3, rng)
        cache = ContextCache()
        first = cache.get_or_prepare_block(detector, channels, 0.05)
        with mock.patch.object(ContextCache, "_replay", side_effect=AssertionError):
            again = cache.get_or_prepare_block(detector, channels.copy(), 0.05)
        assert again is first
        assert cache.stats == CacheStats(hits=5, misses=5, entries=5)

    def test_an_exactly_repeated_block_is_touched_in_order(self, detector, rng):
        channels = rayleigh_channels(5, 3, 3, rng)
        cache = ContextCache(max_entries=4)
        for rows in ([0, 1], [2, 3], [0, 1], [4]):
            cache.get_or_prepare_block(detector, channels[rows], 0.05)
        # The repeat made 2 the least recently used, so [4] evicted it.
        cache.get_or_prepare_block(detector, channels[[0, 1, 3]], 0.05)
        assert cache.stats == CacheStats(hits=5, misses=5, evictions=1, entries=4)


class TestKeyedOnce:
    """A channel's key is made once per block wherever it enters: the
    batch path, the streaming path (the micro-batcher's keys reach the
    cache with the flush) and the SNR-governed streaming path."""

    @pytest.mark.parametrize(
        "stack",
        [
            {},
            {"cells": 1},
            {"cells": 1, "governor": GovernorSpec(policy="snr", paths_min=2, paths_max=8)},
        ],
        ids=["batch", "streaming", "snr-governed"],
    )
    def test_one_key_per_channel_per_block(self, detector, rng, stack):
        channels = rayleigh_channels(4, 3, 3, rng)
        received = rng.standard_normal((4, 2, 3)) + 0j
        keyed, depth = [], [0]

        def spy(make):
            # Counts the channels of the outermost call only: a key maker
            # may be built on another.
            def counted(channels, noise_var):
                if not depth[0]:
                    keyed.append(1 if np.ndim(channels) == 2 else len(channels))
                depth[0] += 1
                try:
                    return make(channels, noise_var)
                finally:
                    depth[0] -= 1

            return counted

        makers = [
            (module, name, spy(getattr(module, name)))
            for module in (runtime_cache, runtime_scheduler)
            for name in ("context_key", "block_context_keys")
            if hasattr(module, name)
        ]
        with make_stack(detector, **stack) as engine, ExitStack() as patches:
            for module, name, counted in makers:
                patches.enter_context(mock.patch.object(module, name, counted))
            for _ in range(2):
                engine.detect_batch(channels, received, 0.05)
        assert sum(keyed) == 2 * len(channels)


class TestBackends:
    def test_available(self):
        assert available_backends() == ("array", "serial")

    def test_make_backend_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_make_backend_unknown(self):
        with pytest.raises(ConfigurationError):
            make_backend("quantum")

    def test_make_backend_unknown_lists_sorted_registry(self):
        """The error names every registered backend, sorted."""
        with pytest.raises(ConfigurationError) as excinfo:
            make_backend("quantum")
        message = str(excinfo.value)
        assert "'quantum'" in message
        names = list(available_backends())
        assert names == sorted(names)
        for name in names:
            assert name in message
        # Names appear in sorted registry order within the message.
        positions = [message.index(name) for name in names]
        assert positions == sorted(positions)

    def test_make_backend_non_string_spec_lists_registry(self):
        with pytest.raises(ConfigurationError, match="registered backends"):
            make_backend(12345)


class TestEngineCaching:
    def test_replayed_batch_is_all_hits(self, detector, rng):
        channels = rayleigh_channels(4, 3, 3, rng)
        received = rng.standard_normal((4, 2, 3)) + 0j
        engine = make_stack(detector)
        first = engine.detect_batch(channels, received, 0.05)
        second = engine.detect_batch(channels, received, 0.05)
        assert first.stats["cache"].misses == 4
        assert second.stats["cache"].misses == 0
        assert second.stats["cache"].hits == 4
        assert np.array_equal(first.indices, second.indices)

    def test_cache_disabled_always_prepares(self, detector, rng):
        channels = rayleigh_channels(4, 3, 3, rng)
        received = rng.standard_normal((4, 2, 3)) + 0j
        service = DetectionService()
        batch = UplinkBatch(channels, received, 0.05)
        service.detect(detector, batch, cache=None)
        replay = service.detect(detector, batch, cache=None)
        assert replay.stats["cache"].misses == 4

    def test_cache_disabled_skips_within_batch_dedup(self, detector, rng):
        # A flat-fading batch (identical channel on every subcarrier)
        # must still prepare once per subcarrier when caching is off —
        # the uncached baseline may not silently deduplicate.
        channel = rayleigh_channels(1, 3, 3, rng)
        channels = np.repeat(channel, 4, axis=0)
        received = rng.standard_normal((4, 2, 3)) + 0j
        result = DetectionService().detect(
            detector, UplinkBatch(channels, received, 0.05), cache=None
        )
        assert result.stats["cache"].misses == 4
        cached = make_stack(detector)
        result = cached.detect_batch(channels, received, 0.05)
        assert result.stats["cache"].misses == 1
        assert result.stats["cache"].hits == 3

    def test_clear_cache(self, detector, rng):
        channels = rayleigh_channels(2, 3, 3, rng)
        received = rng.standard_normal((2, 2, 3)) + 0j
        engine = make_stack(detector)
        engine.detect_batch(channels, received, 0.05)
        engine.clear_cache()
        replay = engine.detect_batch(channels, received, 0.05)
        assert replay.stats["cache"].misses == 2


class TestLinkIntegration:
    """simulate_link rides the engine; coherent traces amortise prepare."""

    def test_trace_coherence_amortised(self):
        system = MimoSystem(3, 4, QamConstellation(16))
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=6
        )
        testbed = IndoorTestbed(num_rx=4, rng=5)
        sampler = testbed_sampler(config, testbed, num_frames=4)
        detector = FlexCoreDetector(system, num_paths=8)
        # 8 packets over a 4-frame trace: packets 5..8 replay frames 1..4,
        # so at most 4 x 6 distinct contexts are ever prepared.
        result = simulate_link(
            config, detector, 20.0, 8, sampler, rng=0
        )
        runtime = result.metadata["runtime"]
        assert runtime["backend"] == "serial"
        assert runtime["contexts_prepared"] == 4 * 6
        assert runtime["context_cache_hits"] == 4 * 6

    def test_explicit_engine_must_wrap_same_detector(self):
        from repro.errors import LinkSimulationError
        from repro.link.channels import rayleigh_sampler

        system = MimoSystem(3, 3, QamConstellation(16))
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=6
        )
        other = FlexCoreDetector(system, num_paths=4)
        detector = FlexCoreDetector(system, num_paths=8)
        with pytest.raises(LinkSimulationError):
            simulate_link(
                config,
                detector,
                10.0,
                1,
                rayleigh_sampler(config),
                rng=0,
                engine=make_stack(other),
            )

    def test_seeded_results_identical_across_backends(self):
        from repro.link.channels import rayleigh_sampler

        system = MimoSystem(3, 3, QamConstellation(16))
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=6
        )
        detector = FlexCoreDetector(system, num_paths=8)
        serial = simulate_link(
            config, detector, 14.0, 2, rayleigh_sampler(config), rng=4
        )
        with make_stack(detector, backend="array") as engine:
            stacked = simulate_link(
                config,
                detector,
                14.0,
                2,
                rayleigh_sampler(config),
                rng=4,
                engine=engine,
            )
        assert serial.per == stacked.per
        assert serial.bit_errors == stacked.bit_errors
        assert serial.vector_errors == stacked.vector_errors
