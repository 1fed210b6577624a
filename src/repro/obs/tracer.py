"""Span tracing with a Chrome/Perfetto trace-event exporter.

The tracer records **nestable spans** — named intervals with key/value
attributes — into a bounded ring buffer.  Span names are fixed
vocabulary (:data:`SPAN_PREPARE` … :data:`SPAN_CHUNK`) so downstream
tooling can key on them, attributes are free-form.  Export follows the
Chrome trace-event JSON format (``ph="X"`` complete events, ``ph="i"``
instants, ``ph="M"`` process-name metadata), so a trace file opens
directly in ``chrome://tracing`` or https://ui.perfetto.dev.

Two access paths:

* explicit — construct a :class:`Tracer` and pass it down (the
  :class:`~repro.obs.Observability` hub does this for the runtime), or
* ambient — deep kernels that cannot be plumbed (the FlexCore
  QR/tree-search pre-processing) call :func:`current_tracer`, which
  reads a :mod:`contextvars` variable set by :func:`use_tracer`.

When tracing is off, every call lands on :data:`NULL_TRACER`, whose
``span()`` returns a shared no-op context manager — the disabled warm
path costs one attribute lookup and one method call.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
from collections import deque

from repro.errors import ConfigurationError
from repro.utils.io import atomic_write_text

__all__ = [
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
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]

# Span-name vocabulary.  Fixed strings, not an enum, so they serialize
# naturally into trace JSON and chunk replies.
SPAN_PREPARE = "prepare"
SPAN_QR = "qr"
SPAN_TREE_SEARCH = "tree_search"
SPAN_DETECT = "detect"
SPAN_FLUSH = "flush"
SPAN_GOVERNOR_TICK = "governor_tick"
SPAN_CHUNK = "chunk"

EVENT_UPLOAD = "upload"
EVENT_DOWNLOAD = "download"
EVENT_WORKER_RESTART = "worker_restart"

#: The complete span (``ph="X"``) vocabulary: every ``tracer.span(...)``
#: call site uses one of these via its ``SPAN_*`` constant, so
#: dashboards keyed on a span name never silently go dark after a
#: rename.  A tier-1 test traces real runs and checks they emit exactly
#: this set.
SPAN_NAMES = (
    SPAN_PREPARE,
    SPAN_QR,
    SPAN_TREE_SEARCH,
    SPAN_DETECT,
    SPAN_FLUSH,
    SPAN_GOVERNOR_TICK,
    SPAN_CHUNK,
)

#: Instant (``ph="i"``) marker vocabulary, same contract as
#: :data:`SPAN_NAMES` for ``tracer.instant(...)`` call sites.
EVENT_NAMES = (EVENT_UPLOAD, EVENT_DOWNLOAD, EVENT_WORKER_RESTART)


class _NullSpan:
    """Shared no-op span: the entire cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer with the full :class:`Tracer` surface."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, attrs=None, pid=None, tid=None) -> None:
        pass


NULL_TRACER = NullTracer()


class _Span:
    """One live span; append-on-exit into the tracer's ring buffer."""

    __slots__ = ("_tracer", "name", "attrs", "_start_us", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start_us = 0.0
        self._depth = 0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (latency, hit counts)."""
        self.attrs.update(attrs)

    def __enter__(self):
        tracer = self._tracer
        self._start_us = tracer._now_us()
        self._depth = len(tracer._stack)
        tracer._stack.append(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self._tracer
        end_us = tracer._now_us()
        tracer._stack.pop()
        args = dict(self.attrs)
        if self._depth:
            args["parent"] = tracer._stack[-1]
            args["depth"] = self._depth
        tracer._append(
            {
                "name": self.name,
                "ph": "X",
                "ts": self._start_us,
                "dur": end_us - self._start_us,
                "pid": tracer.pid,
                "tid": tracer.tid,
                "args": args,
            }
        )
        return False


class Tracer:
    """Nestable-span recorder over a bounded ring buffer.

    Parameters
    ----------
    max_events:
        Ring-buffer capacity; the oldest events are dropped (and
        counted in :attr:`dropped`) once the run outgrows it.
    clock:
        Seconds-returning callable; defaults to :func:`time.monotonic`,
        which is ``CLOCK_MONOTONIC`` system-wide on Linux, so span
        timestamps from forked farm workers land on the same timeline.
    pid / tid:
        Default lane for recorded events.  The convention across the
        stack: the main process traces as ``pid=1``, worker ``k`` of a
        farm as ``pid=2+k`` (see :meth:`extend`).
    """

    enabled = True

    def __init__(
        self,
        max_events: int = 65536,
        clock=time.monotonic,
        pid: int = 1,
        tid: int = 1,
    ):
        if max_events <= 0:
            raise ConfigurationError("max_events must be positive")
        self.max_events = int(max_events)
        self._clock = clock
        self.pid = int(pid)
        self.tid = int(tid)
        self._events: deque = deque(maxlen=self.max_events)
        self._stack: list[str] = []
        self.dropped = 0
        self.process_names: dict[int, str] = {}

    # ------------------------------------------------------------------
    def _now_us(self) -> float:
        return self._clock() * 1e6

    def _append(self, event: dict) -> None:
        if len(self._events) == self.max_events:
            self.dropped += 1
        self._events.append(event)

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """A context manager recording one complete (``ph="X"``) event."""
        return _Span(self, name, attrs)

    def instant(self, name: str, attrs=None, pid=None, tid=None) -> None:
        """Record a zero-duration (``ph="i"``) marker event."""
        self._append(
            {
                "name": name,
                "ph": "i",
                "s": "t",
                "ts": self._now_us(),
                "pid": self.pid if pid is None else int(pid),
                "tid": self.tid if tid is None else int(tid),
                "args": dict(attrs) if attrs else {},
            }
        )

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[dict]:
        """Snapshot of the buffered events (oldest first)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def drain(self) -> list[dict]:
        """Return the buffered events and clear the buffer.

        Farm workers call this per chunk so each reply carries only the
        chunk's spans — the coordinator accumulates, never double-sees.
        """
        events = list(self._events)
        self._events.clear()
        return events

    def extend(self, events, pid=None, tid=None) -> None:
        """Merge foreign events, optionally restamping their lane.

        The farm coordinator folds worker chunk replies in with
        ``pid=2+worker_index`` so each worker renders as its own lane
        in the merged timeline.
        """
        for event in events:
            event = dict(event)
            if pid is not None:
                event["pid"] = int(pid)
            if tid is not None:
                event["tid"] = int(tid)
            self._append(event)

    def set_process_name(self, pid: int, name: str) -> None:
        """Label a pid lane (rendered by Chrome's ``process_name``)."""
        self.process_names[int(pid)] = str(name)

    # ------------------------------------------------------------------
    def chrome_payload(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Events are sorted by ``(pid, tid, ts)`` — parent ``X`` events
        are appended at *exit* time, after their children, so the raw
        buffer is not timestamp-ordered per lane.
        """
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
            for pid, name in sorted(self.process_names.items())
        ]
        events = sorted(
            self._events,
            key=lambda e: (e.get("pid", 0), e.get("tid", 0), e.get("ts", 0.0)),
        )
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def export_chrome(self, path) -> None:
        """Atomically write the Chrome trace JSON to ``path``."""
        atomic_write_text(path, json.dumps(self.chrome_payload()))


# ----------------------------------------------------------------------
# Ambient tracer for deep kernels that cannot be plumbed explicitly.

_ACTIVE_TRACER: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)


def current_tracer():
    """The ambient tracer (:data:`NULL_TRACER` when tracing is off)."""
    return _ACTIVE_TRACER.get()


@contextlib.contextmanager
def use_tracer(tracer):
    """Make ``tracer`` ambient for the duration of the ``with`` body."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)
