"""The benchmark's own span recorder.

Deliberately not ``repro.obs``: the ruler must not depend on what it
measures.  Spans are ``{name, start, end, parent, workload, iteration}``
dicts kept in memory; :meth:`Recorder.wrap` patches a layer's public
function so each call becomes a span, :func:`self_times` folds spans
into per-layer self time (span minus the part its children cover), and
:meth:`Recorder.write_chrome` dumps Chrome trace JSON at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: "list[dict]" = []
        self.iteration = 0
        #: Wrapped functions call straight through while False, so traced
        #: and untraced iterations can alternate inside one loop.
        self.enabled = True
        self._open: "list[int]" = []
        self._restore: "list[tuple]" = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": parent,
            "workload": self.workload,
            "iteration": self.iteration,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        """Record a span after the fact (from a public record's stamps)."""
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
                "iteration": self.iteration,
            }
        )
        return len(self.spans) - 1

    def wrap(self, owner, attr: str, name: str) -> None:
        """Patch ``owner.attr`` so every call is recorded as ``name``."""
        raw = inspect.getattr_static(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            with self.span(name):
                return func(*args, **kwargs)

        setattr(
            owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced
        )
        self._restore.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write_chrome(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {
                    "parent": span["parent"],
                    "workload": span["workload"],
                    "iteration": span["iteration"],
                },
            }
            for span in self.spans
            if span["end"] is not None
        ]
        path.write_text(json.dumps({"traceEvents": events}))


def self_times(spans: "list[dict]") -> "list[float]":
    """Self time of every span, in seconds, aligned with ``spans``.

    Self time is the span's duration minus its direct children's; a
    child's own children are already inside the child.
    """
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own
