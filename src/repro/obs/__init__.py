"""Zero-dependency observability: span tracing + metrics registry.

:class:`Observability` bundles the two pillars one stack shares — a
:class:`~repro.obs.tracer.Tracer` (nestable spans, Chrome trace-event
export) and a :class:`~repro.obs.metrics.MetricsRegistry` (counters,
gauges, mergeable latency histograms, Prometheus text exposition).
Construction points (:func:`repro.api.build_stack`,
:class:`~repro.runtime.service.DetectionService`, the farm
coordinator) accept an ``obs=`` argument; when omitted they fall back
to the process-global hub, which the runner installs for ``--trace`` /
``--metrics-dump`` so any experiment gets instrumented without
plumbing.

Spans are off by default: with no hub installed and no
``TracingSpec(enabled=True)``, instrumented code paths see
:data:`~repro.obs.tracer.NULL_TRACER` and record no events.  Counting
is not optional — :mod:`repro.obs.ledger` is the stack's one accounting
plane and every flush is written to it either way; a hub only decides
whose registry the counts fold into and whether they are exposed.
"""

from __future__ import annotations

import time

from repro.obs.ledger import (
    FlushLedger,
    cell_summaries,
    exposition,
    scheduler_summary,
)
from repro.obs.metrics import (
    DEADLINE_MARGIN_EDGES_S,
    DEFAULT_LATENCY_EDGES_S,
    METRIC_NAMES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    EVENT_DOWNLOAD,
    EVENT_NAMES,
    EVENT_UPLOAD,
    EVENT_WORKER_RESTART,
    NULL_TRACER,
    SPAN_CHUNK,
    SPAN_DETECT,
    SPAN_FLUSH,
    SPAN_GOVERNOR_TICK,
    SPAN_NAMES,
    SPAN_PREPARE,
    SPAN_QR,
    SPAN_TREE_SEARCH,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)
from repro.utils.io import atomic_write_text

__all__ = [
    "Observability",
    "install_global",
    "get_global",
    "clear_global",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FlushLedger",
    "cell_summaries",
    "exposition",
    "scheduler_summary",
    "DEFAULT_LATENCY_EDGES_S",
    "DEADLINE_MARGIN_EDGES_S",
    "SPAN_PREPARE",
    "SPAN_QR",
    "SPAN_TREE_SEARCH",
    "SPAN_DETECT",
    "SPAN_FLUSH",
    "SPAN_GOVERNOR_TICK",
    "SPAN_CHUNK",
    "EVENT_UPLOAD",
    "EVENT_DOWNLOAD",
    "EVENT_WORKER_RESTART",
    "SPAN_NAMES",
    "EVENT_NAMES",
    "METRIC_NAMES",
]

#: pid lane of the main process in merged timelines; worker ``k`` of a
#: farm traces as ``WORKER_PID_BASE + k``.
MAIN_PID = 1
WORKER_PID_BASE = 2


class Observability:
    """One stack's tracer + metrics registry."""

    def __init__(
        self,
        max_events: int = 65536,
        clock=time.monotonic,
        pid: int = MAIN_PID,
        tid: int = 1,
    ):
        self.tracer = Tracer(max_events=max_events, clock=clock, pid=pid, tid=tid)
        self.metrics = MetricsRegistry()
        self.tracer.set_process_name(MAIN_PID, "main")

    # ------------------------------------------------------------------
    def export_trace(self, path) -> None:
        """Atomically write the Chrome trace-event JSON to ``path``."""
        self.tracer.export_chrome(path)

    def prometheus_text(self) -> str:
        return exposition(self.metrics)

    def dump_metrics(self, path) -> None:
        """Atomically write the Prometheus text exposition to ``path``."""
        atomic_write_text(path, self.prometheus_text())


# ----------------------------------------------------------------------
# Process-global hub: how `runner --trace` reaches stacks it does not
# construct directly.

_GLOBAL: "Observability | None" = None


def install_global(obs: Observability) -> Observability:
    """Install ``obs`` as the process-global hub and return it."""
    global _GLOBAL
    _GLOBAL = obs
    return obs


def get_global() -> "Observability | None":
    """The process-global hub, or None when none is installed."""
    return _GLOBAL


def clear_global() -> None:
    """Drop the process-global hub.

    Forked farm workers call this first thing: they inherit the
    parent's hub by fork and must not double-record into it — each
    worker builds its own hub from its config slice instead.
    """
    global _GLOBAL
    _GLOBAL = None
