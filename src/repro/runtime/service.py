"""The cell-agnostic detection service: one prepare+detect route.

The paper has two parallel axes.  Every (subcarrier x path) element in
flight at once (§3.2, §5.2) is the *stacked* walk an
:class:`~repro.runtime.backends.ArrayBackend` runs in this process;
subcarrier ranges spread across devices (§5.2) is :mod:`repro.farm`,
the one multi-process mechanism, which runs a whole stack — this
service included — inside each supervised worker.  So the service
itself never starts a process: it has two in-process routes, chosen
per call from what it can observe,

* ``stacked`` — the backend is an ``ArrayBackend`` and the detector has
  the (soft) block kernel: one tensor walk per group of equal path
  count;
* otherwise the per-subcarrier :func:`_detect_block` loop
  (``detect_prepared`` at G = 1).  On ``backend="serial"`` this is the
  only route, which makes it the reference implementation flexbench and
  the equivalence suites compare the stacked walk against, bit for bit.

Both routes share everything else in :meth:`DetectionService._detect`:
one prepare helper, one ``detect`` span, one stats assembly.

Front-ends on top: :class:`repro.api.UplinkStack` (synchronous
``detect_batch``: one detector, one cell's cache, straight into
:meth:`DetectionService.detect`), and the streaming
:class:`~repro.runtime.scheduler.StreamingScheduler` / cell farm
(:mod:`repro.runtime.cells`), which flush micro-batches from many cells
through a single shared service.  Detector and cache are *per
call*, which is what makes the service cell-agnostic — N cells with N
caches (and even N different detectors) share one backend, the way the
paper's AP shares its processing elements across all subcarriers in
flight (§5.2).
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

import numpy as np

from repro import native
from repro.errors import ConfigurationError, LinkSimulationError
from repro.obs import (
    EVENT_DOWNLOAD,
    EVENT_UPLOAD,
    NULL_TRACER,
    SPAN_DETECT,
    SPAN_PREPARE,
    get_global,
    use_tracer,
)
from repro.runtime.backends import ArrayBackend, ExecutionBackend, make_backend
from repro.runtime.batch import BatchDetectionResult, UplinkBatch
from repro.runtime.cache import CacheStats, ContextCache
from repro.utils.flops import NULL_COUNTER, FlopCounter


def clamp_context_paths(context, max_paths: "int | None"):
    """Apply a per-call path budget to one prepared context.

    Contexts that carry an ``active_paths`` dial (FlexCore's) are
    shallow-copied with the dial clamped to ``max_paths`` — the cached
    original is never mutated, so the budget is genuinely per call.
    Budget-less contexts (linear detectors and friends) pass through
    untouched: the budget dial simply does not apply to them.
    """
    if max_paths is None:
        return context
    active = getattr(context, "active_paths", None)
    if active is None or active <= max_paths:
        return context
    clamped = copy.copy(context)
    clamped.active_paths = int(max_paths)
    return clamped


def _detect_block(
    detector,
    channels: np.ndarray,
    received: np.ndarray,
    noise_var: float,
    contexts: "Sequence | None",
    counter: FlopCounter,
    use_soft: bool,
    max_paths: "int | None" = None,
) -> tuple[np.ndarray, np.ndarray | None, list]:
    """Detect a ``(s, F, Nr)`` block, one context per subcarrier.

    ``contexts`` supplies pre-prepared channel contexts (the cached
    path); ``None`` means prepare inline, once per subcarrier with no
    deduplication — the honest uncached baseline.  ``max_paths`` is the
    optional per-call path budget (see :func:`clamp_context_paths`).
    """
    num_sc, num_frames, _ = received.shape
    num_streams = detector.system.num_streams
    indices = np.empty((num_sc, num_frames, num_streams), dtype=np.int64)
    llrs = None
    if use_soft:
        width = num_streams * detector.system.constellation.bits_per_symbol
        llrs = np.empty((num_sc, num_frames, width))
    metadata = []
    for sc in range(num_sc):
        if contexts is None:
            context = detector.prepare(
                channels[sc], noise_var, counter=counter
            )
        else:
            context = contexts[sc]
        context = clamp_context_paths(context, max_paths)
        if use_soft:
            result = detector.detect_soft_prepared(
                context, received[sc], noise_var, counter=counter
            )
        else:
            result = detector.detect_prepared(context, received[sc], counter=counter)
        indices[sc] = result.indices
        if llrs is not None:
            llrs[sc] = result.llrs
        metadata.append(result.metadata)
    return indices, llrs, metadata


def supports_soft(detector) -> bool:
    """Whether ``detector`` produces per-bit LLRs."""
    return hasattr(detector, "detect_soft_prepared")


class DetectionService:
    """Drives any detector over uplink batches on one execution backend.

    Parameters
    ----------
    backend:
        ``"serial"`` (default; the per-subcarrier reference loop),
        ``"array"`` (stacked tensor walk), or any pre-built
        :class:`~repro.runtime.backends.ExecutionBackend`.
    obs:
        An :class:`~repro.obs.Observability` hub for span tracing;
        ``None`` (the default) falls back to the process-global hub
        (installed by the runner's ``--trace``), and with no hub at all
        every span is a shared no-op.  The service counts nothing
        itself: a call's cache / transfer movement is returned in
        ``stats`` and accounted once by the caller that owns the cell
        (:class:`~repro.obs.ledger.FlushLedger`).

    Notes
    -----
    The service holds no detector and no cache — both arrive with each
    :meth:`detect` call, so one service (one backend, one resident
    store) safely serves many cells with isolated per-cell
    caches.  Results are bit-identical across backends and identical to
    driving the detector one received vector at a time; see the
    batching contract on
    :meth:`repro.detectors.base.Detector.detect_prepared`.
    """

    def __init__(
        self, backend: "str | ExecutionBackend" = "serial", obs=None
    ):
        self.backend = make_backend(backend)
        # Build or load the walk's native lane now: never inside a flush.
        native.kernel()
        if obs is None:
            obs = get_global()
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def detect(
        self,
        detector,
        batch: UplinkBatch,
        cache: "ContextCache | None" = None,
        counter: FlopCounter = NULL_COUNTER,
        use_soft: bool = False,
        max_paths: "int | None" = None,
    ) -> BatchDetectionResult:
        """Detect one :class:`~repro.runtime.batch.UplinkBatch`.

        ``cache`` is the caller's coherence cache (one per cell);
        ``None`` disables caching, preparing once per subcarrier with no
        deduplication — the naive baseline the runtime benchmark
        measures against.

        ``max_paths`` is the control plane's per-call path budget: every
        context carrying an ``active_paths`` dial is clamped to it for
        this call only (cached contexts stay untouched).  ``None`` — the
        default, and the ungoverned behaviour — runs every context at
        its prepared path count.
        """
        self._check_batch(detector, batch)
        if max_paths is not None and max_paths < 1:
            raise ConfigurationError(
                f"max_paths must be >= 1, got {max_paths}"
            )
        if use_soft and not supports_soft(detector):
            raise LinkSimulationError(
                f"{detector.name} does not produce soft output"
            )
        args = (detector, batch, cache, counter, use_soft, max_paths)
        if not self._tracer.enabled:
            return self._detect(*args)
        # Make the tracer ambient so deep kernels (the FlexCore QR /
        # tree-search miss path) can record without being plumbed.
        with use_tracer(self._tracer):
            return self._detect(*args)

    # ------------------------------------------------------------------
    @staticmethod
    def _check_batch(detector, batch: UplinkBatch) -> None:
        system = detector.system
        if (
            batch.num_rx_antennas != system.num_rx_antennas
            or batch.num_streams != system.num_streams
        ):
            raise ConfigurationError(
                f"batch is {batch.num_rx_antennas}x{batch.num_streams}, "
                f"detector expects {system.num_rx_antennas}x"
                f"{system.num_streams}"
            )

    def _prepare_contexts(
        self,
        detector,
        batch: UplinkBatch,
        cache: "ContextCache | None",
        counter: FlopCounter,
        stacked: bool,
    ) -> "tuple[Sequence | None, CacheStats]":
        """Contexts for every subcarrier — a sequence indexable by
        subcarrier — and the batch's cache movement.

        Through a cache (under the batch's own keys, when it carries
        them), both routes ride the batched cold path of
        :meth:`~repro.runtime.cache.ContextCache.get_or_prepare_block`.
        With caching disabled every subcarrier counts as a miss: the
        stacked route prepares them, un-deduplicated, in one
        ``prepare_many`` call (its kernel needs the contexts up front),
        while the per-subcarrier route gets ``None`` and prepares inline
        in :func:`_detect_block` — the honest naive baseline.
        """
        uncached = CacheStats(misses=batch.num_subcarriers)
        if cache is None and not stacked:
            return None, uncached
        with self._tracer.span(
            SPAN_PREPARE, subcarriers=batch.num_subcarriers
        ) as span:
            if cache is None:
                contexts = detector.prepare_many(
                    batch.channels, batch.noise_var, counter=counter
                )
                delta = uncached
            else:
                before = cache.stats
                contexts = cache.get_or_prepare_block(
                    detector, batch.channels, batch.noise_var, counter=counter, keys=batch.keys
                )
                delta = cache.stats.since(before)
            span.set(cache_hits=delta.hits, cache_misses=delta.misses)
        return contexts, delta

    def _trace_transfers(self, delta) -> None:
        """Upload/download instants from one
        :class:`~repro.utils.xp.TransferStats` delta."""
        if self.obs is None:
            return
        if delta.uploads:
            self._tracer.instant(
                EVENT_UPLOAD,
                {"uploads": delta.uploads, "bytes": delta.upload_bytes},
            )
        if delta.downloads:
            self._tracer.instant(
                EVENT_DOWNLOAD,
                {"downloads": delta.downloads, "bytes": delta.download_bytes},
            )

    # ------------------------------------------------------------------
    def _detect(
        self,
        detector,
        batch: UplinkBatch,
        cache: "ContextCache | None",
        counter: FlopCounter,
        use_soft: bool,
        max_paths: "int | None",
    ) -> BatchDetectionResult:
        """The one route: prepare, detect under one span, assemble stats.

        ``stacked`` is the only branch.  The block kernel gets its
        prepared block *unclamped*: the path budget is applied exactly
        once, as a slice of the (resident) plan inside the kernel —
        never by copying contexts, never twice.  A warm batch gets the
        cached block itself, whose plans are already built, so it
        uploads zero context bytes.  The per-subcarrier loop owns its
        own (single) clamp in :func:`_detect_block`.

        On an ``ArrayBackend`` ``stats`` also carries the per-batch
        ``resident`` delta, and ``transfers`` when its module meters
        them.
        """
        backend = self.backend
        on_array = isinstance(backend, ArrayBackend)
        kernel = getattr(
            detector,
            "detect_soft_block_prepared" if use_soft else "detect_block_prepared",
            None,
        )
        stacked = on_array and detector.has_block_kernel and callable(kernel)
        xp = backend.array_module if on_array else None
        store = backend.resident_store if on_array else None
        transfers_before = xp.transfer_stats() if on_array else None
        resident_before = store.stats if on_array else None
        contexts, delta = self._prepare_contexts(
            detector, batch, cache, counter, stacked
        )
        with self._tracer.span(
            SPAN_DETECT,
            backend=backend.name,
            stacked=stacked,
            subcarriers=batch.num_subcarriers,
            frames=batch.num_frames,
            path_budget=max_paths,
        ):
            if not stacked:
                indices, llrs, metadata = _detect_block(
                    detector,
                    batch.channels,
                    batch.received,
                    batch.noise_var,
                    contexts,
                    counter,
                    use_soft,
                    max_paths,
                )
            else:
                walk = dict(
                    counter=counter, xp=xp, store=store, max_paths=max_paths
                )
                if use_soft:
                    indices, llrs, metadata = kernel(
                        contexts, batch.received, batch.noise_var, **walk
                    )
                else:
                    llrs = None
                    indices, metadata = kernel(
                        contexts, batch.received, **walk
                    )
        stats = dict(
            backend=backend.name,
            stacked=stacked,
            subcarriers=batch.num_subcarriers,
            frames=batch.num_frames,
            cache=delta,
        )
        if max_paths is not None:
            stats["path_budget"] = int(max_paths)
        if transfers_before is not None:
            stats["transfers"] = xp.transfer_stats().since(transfers_before)
            self._trace_transfers(stats["transfers"])
        if resident_before is not None:
            stats["resident"] = store.stats.since(resident_before)
        return BatchDetectionResult(
            indices=indices,
            llrs=llrs,
            per_subcarrier_metadata=metadata,
            stats=stats,
            prepared=contexts,
        )
