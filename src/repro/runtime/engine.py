"""The batched uplink detection engine — a thin batch adapter.

:class:`BatchedUplinkEngine` drives any registered detector over whole
``(subcarriers x frames)`` uplink batches instead of one received vector
at a time.  It supplies the two systems-level wins the paper builds its
throughput argument on:

* **Coherence amortisation** (§4): contexts — QR, the level-error model,
  FlexCore's position vectors — are prepared once per distinct
  ``(channel, noise_var)`` and served from a content-addressed cache for
  every frame and every recurrence of that channel.
* **Subcarrier parallelism** (§5.2): on ``backend="array"`` every
  subcarrier of equal path count is stacked into one ``(S, F, P, Nt)``
  tensor walk on a pluggable array module; ``backend="serial"`` runs
  the same problems one subcarrier at a time and is the reference the
  stacked walk is checked against.  Both run in this process; spreading
  subcarrier ranges over processes is :mod:`repro.farm`'s job.

The heavy lifting — context preparation, route selection, the stacked
tensor walk, stats — lives in the cell-agnostic
:class:`~repro.runtime.service.DetectionService`.  The engine binds one
detector and one private :class:`~repro.runtime.cache.ContextCache` to a
service and exposes the synchronous batch API the link simulator and
the experiment harness drive.  The streaming front-ends
(:mod:`repro.runtime.scheduler`, :mod:`repro.runtime.cells`) sit on the
same service.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Detector
from repro.errors import ConfigurationError
from repro.runtime.backends import ExecutionBackend
from repro.runtime.batch import BatchDetectionResult, UplinkBatch
from repro.runtime.cache import CacheStats, ContextCache
from repro.runtime.service import DetectionService, supports_soft
from repro.utils.flops import NULL_COUNTER, FlopCounter


class BatchedUplinkEngine:
    """Batched, cached uplink detection around one detector.

    Parameters
    ----------
    detector:
        The detector instance to drive.  Use
        :func:`repro.detectors.registry.make_detector` to build one by
        name.
    backend:
        ``"serial"`` (default), ``"array"`` (stacked tensor walk; array
        module from ``REPRO_ARRAY_BACKEND`` unless an
        :class:`~repro.runtime.backends.ArrayBackend` is pre-built with
        one), any pre-built
        :class:`~repro.runtime.backends.ExecutionBackend`, or a shared
        :class:`~repro.runtime.service.DetectionService`.
    cache_contexts:
        Enable the coherence context cache.  Disabling forces one
        ``prepare`` per subcarrier per call — the naive baseline the
        runtime benchmark measures against.
    max_cache_entries:
        LRU capacity of the context cache.
    obs:
        An :class:`~repro.obs.Observability` hub for span tracing and
        metrics, passed through to the service the engine creates (a
        shared pre-built service keeps its own).
    """

    def __init__(
        self,
        detector: Detector,
        backend: "str | ExecutionBackend | DetectionService" = "serial",
        cache_contexts: bool = True,
        max_cache_entries: int = 1024,
        obs=None,
    ):
        if not isinstance(detector, Detector):
            raise ConfigurationError(
                "BatchedUplinkEngine needs a Detector instance, got "
                f"{type(detector).__name__}"
            )
        self.detector = detector
        if isinstance(backend, DetectionService):
            self.service = backend
            self._owns_service = False
        else:
            self.service = DetectionService(backend, obs=obs)
            self._owns_service = True
        self.cache_contexts = bool(cache_contexts)
        self._cache = ContextCache(max_entries=max_cache_entries)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend the bound service runs on."""
        return self.service.backend

    @property
    def obs(self):
        """The bound service's observability hub (``None`` untraced)."""
        return self.service.obs

    @property
    def supports_soft(self) -> bool:
        """Whether the wrapped detector produces per-bit LLRs."""
        return supports_soft(self.detector)

    @property
    def cache_stats(self) -> CacheStats:
        """Lifetime hit/miss/eviction snapshot of the context cache."""
        return self._cache.stats

    def clear_cache(self) -> None:
        """Invalidate cached contexts (coherence-interval boundary)."""
        self._cache.clear()

    def close(self) -> None:
        """Release backend resources, unless the service is shared.

        Idempotent for owned *and* shared services: a second ``close``
        (a ``with`` block around an engine someone also closed
        explicitly, say) is a no-op either way, and closing an engine
        that merely borrows a shared service never tears that service
        down for its other users.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "BatchedUplinkEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def detect_batch(
        self,
        channels,
        received=None,
        noise_var: float | None = None,
        counter: FlopCounter = NULL_COUNTER,
        use_soft: bool = False,
    ) -> BatchDetectionResult:
        """Detect an uplink batch.

        Accepts either an :class:`~repro.runtime.batch.UplinkBatch` or the
        raw ``(channels, received, noise_var)`` triple with shapes
        ``(S, Nr, Nt)`` / ``(S, F, Nr)``.
        """
        if isinstance(channels, UplinkBatch):
            batch = channels
        else:
            batch = UplinkBatch(
                channels=channels, received=received, noise_var=noise_var
            )
        return self.service.detect(
            self.detector,
            batch,
            cache=self._cache if self.cache_contexts else None,
            counter=counter,
            use_soft=use_soft,
        )

    def detect(
        self,
        channel: np.ndarray,
        received: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ):
        """Single-subcarrier convenience mirroring ``Detector.detect``,
        but serving ``prepare`` through the coherence cache."""
        if self.cache_contexts:
            context = self._cache.get_or_prepare(
                self.detector, channel, noise_var, counter=counter
            )
        else:
            context = self.detector.prepare(
                channel, noise_var, counter=counter
            )
        return self.detector.detect_prepared(context, received, counter=counter)
