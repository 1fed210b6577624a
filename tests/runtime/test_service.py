"""Tests for the cell-agnostic detection service layer.

The service is the extraction point of the three-layer refactor: one
backend, detector and cache per call, with ``UplinkStack.detect_batch``
a single frame on top.  These tests pin the sharing semantics (one
service, many callers, isolated caches) and the per-batch stats
contract (``stats["cache"]`` snapshot + deprecated aliases), that the
serial backend stays an independent per-subcarrier reference, and that
non-finite input is turned away at the ``UplinkBatch`` boundary.
"""

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channels
from repro.errors import ConfigurationError, LinkSimulationError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.obs import SPAN_DETECT, Observability
from repro.runtime import (
    CacheStats,
    ContextCache,
    DetectionService,
    UplinkBatch,
)
from tests.conftest import make_stack


@pytest.fixture
def system():
    return MimoSystem(3, 3, QamConstellation(16))


@pytest.fixture
def detector(system):
    return FlexCoreDetector(system, num_paths=8)


def make_batch(system, rng, num_sc=4, num_frames=2, noise_var=0.05):
    channels = rayleigh_channels(
        num_sc, system.num_rx_antennas, system.num_streams, rng
    )
    received = (
        rng.standard_normal((num_sc, num_frames, system.num_rx_antennas))
        + 0j
    )
    return UplinkBatch(
        channels=channels, received=received, noise_var=noise_var
    )


class TestDetectionService:
    def test_matches_engine(self, detector, system, rng):
        batch = make_batch(system, rng)
        service = DetectionService()
        cache = ContextCache()
        direct = service.detect(detector, batch, cache=cache)
        stack = make_stack(detector).detect_batch(batch)
        assert np.array_equal(direct.indices, stack.indices)

    def test_detector_is_per_call(self, system, rng):
        """One service drives differently-configured detectors safely."""
        batch = make_batch(system, rng)
        service = DetectionService()
        narrow = FlexCoreDetector(system, num_paths=2)
        wide = FlexCoreDetector(system, num_paths=64)
        a = service.detect(narrow, batch, cache=ContextCache())
        b = service.detect(wide, batch, cache=ContextCache())
        assert a.indices.shape == b.indices.shape
        # Each matches its own dedicated stack bit-for-bit.
        assert np.array_equal(
            a.indices, make_stack(narrow).detect_batch(batch).indices
        )
        assert np.array_equal(
            b.indices, make_stack(wide).detect_batch(batch).indices
        )

    def test_caches_are_isolated_per_call(self, detector, system, rng):
        batch = make_batch(system, rng)
        service = DetectionService()
        first_cache = ContextCache()
        second_cache = ContextCache()
        service.detect(detector, batch, cache=first_cache)
        result = service.detect(detector, batch, cache=second_cache)
        # The second cache never saw the first call's contexts.
        assert result.stats["cache"].misses == batch.num_subcarriers
        assert first_cache.stats.misses == batch.num_subcarriers
        assert second_cache.stats.misses == batch.num_subcarriers

    def test_no_cache_is_uncached_baseline(self, detector, system, rng):
        batch = make_batch(system, rng)
        service = DetectionService()
        result = service.detect(detector, batch, cache=None)
        again = service.detect(detector, batch, cache=None)
        assert result.stats["cache"].misses == batch.num_subcarriers
        assert again.stats["cache"].misses == batch.num_subcarriers
        assert np.array_equal(result.indices, again.indices)

    def test_soft_rejected_for_hard_detector(self, detector, system, rng):
        batch = make_batch(system, rng)
        with pytest.raises(LinkSimulationError, match="soft"):
            DetectionService().detect(detector, batch, use_soft=True)

    def test_dimension_mismatch_rejected(self, detector):
        bad = UplinkBatch(
            channels=np.zeros((2, 5, 5), dtype=complex),
            received=np.zeros((2, 1, 5), dtype=complex),
            noise_var=0.1,
        )
        with pytest.raises(ConfigurationError):
            DetectionService().detect(detector, bad)


ROUTES = ["serial", "array"]
OUTPUTS = pytest.mark.parametrize("use_soft", [False, True], ids=["hard", "soft"])


class TestSingleRoute:
    @OUTPUTS
    def test_serial_never_reaches_the_block_kernels(
        self, system, rng, monkeypatch, use_soft
    ):
        """The serial backend is the oracle the stacked walk is checked
        against (flexbench, the equivalence suites): it must stay the
        per-subcarrier ``detect_prepared`` loop, cached or not."""

        def unreachable(*args, **kwargs):
            raise AssertionError("serial route called a block kernel")

        for kernel in ("detect_block_prepared", "detect_soft_block_prepared"):
            monkeypatch.setattr(SoftFlexCoreDetector, kernel, unreachable)
        detector = SoftFlexCoreDetector(system, num_paths=8)
        assert detector.has_block_kernel
        batch = make_batch(system, rng)
        service = DetectionService("serial")
        for cache in (ContextCache(), None):
            result = service.detect(
                detector, batch, cache=cache, use_soft=use_soft, max_paths=3
            )
            assert not result.stats["stacked"]
            assert result.indices.shape == (4, 2, 3)

    def test_uncached_serial_prepares_per_channel(
        self, detector, system, rng, monkeypatch
    ):
        """``cache=None`` on the reference route is the naive baseline:
        one ``prepare`` — a one-channel block — per subcarrier, never the
        batched cold path."""
        prepared = []
        original = FlexCoreDetector.prepare_many

        def counting(self, channels, *args, **kwargs):
            prepared.append(len(channels))
            return original(self, channels, *args, **kwargs)

        monkeypatch.setattr(FlexCoreDetector, "prepare_many", counting)
        batch = make_batch(system, rng)
        DetectionService("serial").detect(detector, batch, cache=None)
        assert prepared == [1] * batch.num_subcarriers

    @pytest.mark.parametrize("backend", ROUTES)
    def test_detect_span_attributes_are_route_independent(
        self, detector, system, rng, backend
    ):
        obs = Observability()
        batch = make_batch(system, rng)
        DetectionService(backend, obs=obs).detect(
            detector, batch, cache=ContextCache(), max_paths=4
        )
        (span,) = [e for e in obs.tracer.events if e["name"] == SPAN_DETECT]
        args = span["args"]
        assert {
            "backend", "stacked", "subcarriers", "frames", "path_budget"
        } <= set(args)
        assert args["backend"] == backend
        assert args["stacked"] == (backend == "array")
        assert (args["subcarriers"], args["frames"]) == (4, 2)
        assert args["path_budget"] == 4


class TestNonFiniteInputRejected:
    """NaN/inf used to surface as all-NaN LLRs (``noise_var``) or a raw
    ``IndexError`` from inside the walk (``channels``); now the batch
    boundary names the field, identically on every route."""

    @pytest.mark.parametrize("backend", ROUTES)
    @OUTPUTS
    @pytest.mark.parametrize("field", ["noise_var", "channels", "received"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_detect_batch_names_the_field(
        self, system, rng, backend, use_soft, field, bad
    ):
        good = make_batch(system, rng)
        inputs = {
            "channels": good.channels.copy(),
            "received": good.received.copy(),
            "noise_var": good.noise_var,
        }
        if field == "noise_var":
            inputs[field] = bad
        else:
            inputs[field][1, 0, 2] = bad
        detector = SoftFlexCoreDetector(system, num_paths=8)
        with make_stack(detector, backend=backend) as engine:
            with pytest.raises(ConfigurationError, match=field):
                engine.detect_batch(
                    inputs["channels"],
                    inputs["received"],
                    inputs["noise_var"],
                    use_soft=use_soft,
                )
            # The stack is still usable, and nothing bad was cached.
            result = engine.detect_batch(good, use_soft=use_soft)
        if use_soft:
            assert np.isfinite(result.llrs).all()
        assert result.stats["cache"].misses == good.num_subcarriers


class TestCacheStatsContract:
    def test_stats_surface_cache_snapshot(self, detector, system, rng):
        batch = make_batch(system, rng)
        engine = make_stack(detector)
        first = engine.detect_batch(batch)
        second = engine.detect_batch(batch)
        assert isinstance(first.stats["cache"], CacheStats)
        assert first.stats["cache"].misses == batch.num_subcarriers
        assert second.stats["cache"].hits == batch.num_subcarriers
        assert second.stats["cache"].entries == batch.num_subcarriers

    def test_deprecated_aliases_removed(self, detector, system, rng):
        batch = make_batch(system, rng)
        result = make_stack(detector).detect_batch(batch)
        # The flat pre-snapshot aliases were removed after their
        # deprecation cycle: the snapshot is the only surface.
        assert "cache_hits" not in result.stats
        assert "contexts_prepared" not in result.stats
        assert result.stats.get("cache_hits") is None

    def test_snapshot_reads_do_not_warn(self, detector, system, rng):
        # pyproject's filterwarnings turns any DeprecationWarning raised
        # from a repro module into an error, so a plain read pins this.
        batch = make_batch(system, rng)
        result = make_stack(detector).detect_batch(batch)
        assert isinstance(result.stats["cache"], CacheStats)
        assert result.stats["backend"] == "serial"

    def test_engine_cache_stats_is_snapshot(self, detector, system, rng):
        batch = make_batch(system, rng)
        engine = make_stack(detector)
        engine.detect_batch(batch)
        stats = engine.cache_stats
        assert isinstance(stats, CacheStats)
        assert stats.entries == batch.num_subcarriers
        delta = engine.cache_stats.since(stats)
        assert delta == CacheStats(entries=batch.num_subcarriers)


class TestSharedService:
    def test_callers_share_one_service(self, system, rng):
        """Two callers on one service keep caches apart."""
        batch = make_batch(system, rng)
        service = DetectionService()
        first_cache, second_cache = ContextCache(), ContextCache()
        a = FlexCoreDetector(system, num_paths=8)
        b = FlexCoreDetector(system, num_paths=8)
        service.detect(a, batch, cache=first_cache)
        result = service.detect(b, batch, cache=second_cache)
        assert result.stats["cache"].misses == batch.num_subcarriers
        assert first_cache.stats.entries == batch.num_subcarriers

    def test_double_close_idempotent_on_owned_service(self, detector):
        closed = []
        stack = make_stack(detector)
        stack.service.backend.close = lambda: closed.append(True)
        stack.close()
        stack.close()
        assert closed == [True]  # released exactly once

    def test_context_manager_after_explicit_close(self, detector):
        with make_stack(detector) as stack:
            stack.close()
        # __exit__ re-closing must be a no-op (this line not raising is
        # the assertion)
