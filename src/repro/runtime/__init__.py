"""Batched and streaming multi-subcarrier uplink detection runtime.

The paper's throughput story has two systems ingredients on top of the
FlexCore algorithm: amortise per-channel pre-processing over the
coherence time (§4) and spread the embarrassingly-parallel per-subcarrier
problems across execution resources (§5.2).  This package provides both
as a detector-agnostic runtime.  Everything here runs in one process,
on one of two routes — the per-subcarrier reference loop (``serial``)
or the stacked tensor walk (``array``); the one multi-process mechanism
is :mod:`repro.farm`, which supervises worker processes that each host
this runtime.  The one front-end callers hold is
:class:`repro.api.UplinkStack` (``build_stack(StackConfig(...))``): the
synchronous ``detect_batch`` the link simulator, the experiment harness
and the examples drive, and the streaming drivers.  Layered
service-side down:

* :class:`DetectionService` — the cell-agnostic prepare+detect route
  over one execution backend; detector and cache are per call;
* :class:`StreamingScheduler` / :class:`MicroBatcher` — the asyncio
  slot-deadline front-end: :class:`FrameArrival` events are grouped by
  coherence key and flushed on a batch target or the LTE 500 µs slot
  deadline, every flush counted once into the run's ledger
  (:mod:`repro.obs.ledger`; :class:`SchedulerTelemetry` is its view);
* :class:`Cell` / :class:`CellFarm` — multi-cell sharding: N cells
  share one backend with fair-share dispatch but keep per-cell context
  caches; the farm's one ledger is labelled by cell;
* :class:`UplinkBatch` / :class:`BatchDetectionResult` — the
  ``(subcarriers x frames)`` workload (validated: shapes, finite
  values) and its stacked output;
* :class:`ContextCache` / :class:`CacheStats` — content-addressed
  coherence cache of prepared channel contexts, with a stacked-QR
  block-prepare path for misses;
* :class:`SerialBackend` / :class:`ArrayBackend` — the two routes:
  per-subcarrier loop, or one stacked ``(S, F, P, Nt)`` tensor walk
  (native where :mod:`repro.native` has a lane) with resident plans;
* :class:`CountingArrayModule` / :class:`TransferStats` — the metering
  fake of the walk's host↔device boundary (:mod:`repro.utils.xp`).
"""

from repro.runtime.backends import (
    ArrayBackend,
    ExecutionBackend,
    SerialBackend,
    available_backends,
    make_backend,
)
from repro.runtime.batch import BatchDetectionResult, UplinkBatch
from repro.runtime.cache import (
    CacheStats,
    ContextCache,
    block_context_keys,
    context_key,
)
from repro.runtime.cells import Cell, CellFarm
from repro.runtime.residency import ResidencyStats, ResidentContextStore
from repro.runtime.scheduler import (
    FlushRecord,
    FrameArrival,
    FrameDetection,
    MicroBatcher,
    SchedulerTelemetry,
    StreamingScheduler,
)
from repro.runtime.service import DetectionService, clamp_context_paths
from repro.utils.xp import (
    ArrayModule,
    CountingArrayModule,
    TransferStats,
    resolve_array_module,
)

__all__ = [
    "ArrayBackend",
    "ArrayModule",
    "BatchDetectionResult",
    "CacheStats",
    "Cell",
    "CellFarm",
    "ContextCache",
    "CountingArrayModule",
    "DetectionService",
    "ExecutionBackend",
    "FlushRecord",
    "FrameArrival",
    "FrameDetection",
    "MicroBatcher",
    "ResidencyStats",
    "ResidentContextStore",
    "SchedulerTelemetry",
    "SerialBackend",
    "TransferStats",
    "StreamingScheduler",
    "UplinkBatch",
    "available_backends",
    "clamp_context_paths",
    "block_context_keys",
    "context_key",
    "make_backend",
    "resolve_array_module",
]
