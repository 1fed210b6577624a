"""Labelled counters, gauges, and mergeable fixed-bucket histograms.

The registry is deliberately Prometheus-shaped — metric names follow
the ``repro_*_total`` / ``*_seconds`` conventions, a series is a name
plus labels (``counter("repro_flushes_total", cell="cell0")``) and
:meth:`MetricsRegistry.prometheus_text` emits standard text
exposition — but has zero dependencies and one extra capability the
farm needs: **mergeability**.  A series is stored under its exposition
spelling (``repro_flushes_total{cell="cell0"}``), so
:meth:`MetricsRegistry.to_dict` is a flat JSON-safe payload and
:meth:`MetricsRegistry.merge_dict` is the stack's one fold: counters
add, gauges take the incoming value, histograms over equal edges add
bucket-wise — associative and commutative, so chunk replies fold into
one fleet-wide ledger, percentiles exact to bucket resolution, in
whatever order they arrive.  No ratio is stored (it would fold
last-writer-wins); :mod:`repro.obs.ledger` derives them after the fold.

Names are validated — well formed and in :data:`METRIC_NAMES` — and
kinds checked when a series is *created*; a lookup is one dict hit.
Label values may come from outside the program
(cell ids): they are escaped the Prometheus way and a key that does not
round-trip through :func:`parse_key` is refused.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from functools import lru_cache

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_LATENCY_EDGES_S",
    "DEADLINE_MARGIN_EDGES_S",
    "METRIC_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_key",
    "series_key",
]

#: The complete metric-name catalogue.  :class:`MetricsRegistry` refuses
#: to create or read a series under any other base name, whoever spells
#: it (a call site, a name built at run time, a worker's chunk-reply
#: payload), so a renamed metric cannot silently orphan the dashboards
#: and regression thresholds keyed on it.  New instrumentation starts
#: by adding its name here.
METRIC_NAMES = (
    "repro_deadline_hit_rate",
    "repro_deadline_margin_seconds",
    "repro_download_bytes_total",
    "repro_downloads_total",
    "repro_flush_latency_seconds",
    "repro_flushes_total",
    "repro_frames_detected_total",
    "repro_frames_late_total",
    "repro_frames_shed_total",
    "repro_frames_submitted_total",
    "repro_groups_flushed_total",
    "repro_prepare_cache_entries",
    "repro_prepare_cache_evictions_total",
    "repro_prepare_cache_hits_total",
    "repro_prepare_cache_misses_total",
    "repro_scheduler_runs_total",
    "repro_upload_bytes_total",
    "repro_uploads_total",
    "repro_worker_restarts_total",
)

#: Log-spaced seconds buckets, 10 µs … 10 s — wide enough for a cold
#: prepare, fine enough to resolve a 500 µs slot budget.
DEFAULT_LATENCY_EDGES_S = tuple(
    round(base * 10.0**exp, 12)
    for exp in range(-5, 1)
    for base in (1.0, 2.0, 5.0)
) + (10.0,)

#: Signed seconds buckets around zero for deadline margin
#: (completion − deadline): negative = early, positive = late.
DEADLINE_MARGIN_EDGES_S = (
    -1e-2,
    -5e-3,
    -2e-3,
    -1e-3,
    -5e-4,
    -2e-4,
    -1e-4,
    -5e-5,
    0.0,
    5e-5,
    1e-4,
    2e-4,
    5e-4,
    1e-3,
    2e-3,
    5e-3,
    1e-2,
)

_CATALOGUE = frozenset(METRIC_NAMES)
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: One ``name="escaped value"`` pair of a series key, up to its comma.
_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"(?:,|$)'
)
_UNESCAPE_RE = re.compile(r"\\(.)")


def series_key(name: str, labels: dict) -> str:
    """The exposition spelling of one series: ``name{a="x",b="y"}``,
    labels sorted and values escaped (backslash, quote, newline), so a
    series has one key whoever spells it."""
    if not labels:
        return name
    body = ",".join(
        '%s="%s"'
        % (label, str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for label, value in sorted(labels.items())
    )
    return f"{name}{{{body}}}"


@lru_cache(maxsize=4096)
def parse_key(key: str) -> "tuple[str, tuple]":
    """``(name, ((label, value), ...))`` of a :func:`series_key` key.

    The one validation point for a new series, spelled by a call site
    or arrived in a payload: the name must be well formed and the key
    exactly what :func:`series_key` writes for the parts read out of it
    (the parse is lenient, the round trip is the check), so a corrupted
    key cannot alias another series.  Cached: keys recur on every fold.
    """
    name, _, body = key.partition("{")
    labels = tuple(
        (pair[1], _UNESCAPE_RE.sub(lambda m: "\n" if m[1] == "n" else m[1], pair[2]))
        for pair in _LABEL_RE.finditer(body[:-1])
    )
    if not _NAME_RE.match(name) or series_key(name, dict(labels)) != key:
        raise ConfigurationError(
            f"invalid metric series {key!r} (want name{{label=\"value\",...}} "
            f"with the name matching {_NAME_RE.pattern})"
        )
    return name, labels


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0):
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


@lru_cache(maxsize=64)
def _checked_edges(edges: tuple) -> tuple:
    """Validated float bucket edges; cached, a program has two sets."""
    edges = tuple(float(edge) for edge in edges)
    if not edges:
        raise ConfigurationError("histogram needs at least one edge")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ConfigurationError("histogram edges must be strictly increasing")
    return edges


class Histogram:
    """Fixed-bucket histogram with exact-to-bucket percentiles.

    ``edges`` are the strictly increasing upper bounds of the finite
    buckets (``value <= edge`` lands in that bucket — Prometheus ``le``
    semantics); one implicit overflow bucket catches everything above
    the last edge.  Two histograms with equal edges merge by adding
    counts, which commutes and associates — the property the farm's
    fold relies on.
    """

    __slots__ = ("edges", "counts", "sum", "_min", "_max")

    def __init__(self, edges=DEFAULT_LATENCY_EDGES_S):
        self.edges = edges = _checked_edges(tuple(edges))
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def min(self):
        return None if self._min is math.inf else self._min

    @property
    def max(self):
        return None if self._max is -math.inf else self._max

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Upper bucket edge covering the ``q``-quantile, capped at the
        observed maximum.

        Conservative by construction: the true quantile is ≤ the
        returned value, and no sample is above ``max`` — which folds by
        ``max``, so the cap is exact under merge.  The overflow bucket
        (infinite upper edge) reports ``max`` itself.  Empty → 0.0.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {q}")
        total = self.count
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and index < len(self.edges):
                return min(self.edges[index], self._max)
        return self._max

    def quantiles(self) -> dict:
        """The standard latency summary: p50/p95/p99/p999."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }

    # ------------------------------------------------------------------
    def check_edges(self, edges) -> "Histogram":
        if tuple(edges) != self.edges:
            raise ConfigurationError(
                "histogram already holds different bucket edges"
            )
        return self

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place."""
        return self._add(
            other.edges, other.counts, other.sum, other._min, other._max
        )

    def merge_dict(self, payload: dict) -> "Histogram":
        """Fold a :meth:`to_dict` payload in place (the fold's hot path:
        no intermediate histogram is built)."""
        low, high = payload.get("min"), payload.get("max")
        if low is None:
            low, high = math.inf, -math.inf
        return self._add(payload["edges"], payload["counts"], payload["sum"], low, high)

    def _add(self, edges, counts, total, low, high) -> "Histogram":
        if len(counts) != len(self.check_edges(edges).counts):
            raise ConfigurationError(
                f"histogram payload has {len(counts)} counts for "
                f"{len(self.edges)} edges"
            )
        self.counts = [a + b for a, b in zip(self.counts, counts)]
        self.sum += total
        self._min = min(self._min, low)
        self._max = max(self._max, high)
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        return cls(payload["edges"]).merge_dict(payload)


def _fmt(value: float) -> str:
    """Prometheus float formatting (no trailing noise, inf spelled out)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


class MetricsRegistry:
    """Labelled counters/gauges/histograms with get-or-create access."""

    def __init__(self):
        self._tables = {kind: {} for kind in ("counter", "gauge", "histogram")}
        #: name -> (kind, [(labels, series), ...]): what views and the
        #: exposition read, so neither scans or re-parses the key tables.
        self._families: "dict[str, tuple[str, list]]" = {}

    # ------------------------------------------------------------------
    def _series(self, kind: str, key: str, factory):
        """Get or create the series stored under ``key``.

        Creation is the one place a key is validated, its name looked
        up in the catalogue and its kind (and, for histograms, bucket
        edges) checked.
        """
        series = self._tables[kind].get(key)
        if series is None:
            name, labels = parse_key(key)
            if name not in _CATALOGUE:
                raise ConfigurationError(
                    f"metric series {key!r} is outside the catalogue: "
                    f"{name!r} is not in METRIC_NAMES"
                )
            series = factory()
            registered, members = self._families.setdefault(name, (kind, []))
            if registered != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {registered}"
                )
            if kind == "histogram" and members:
                members[0][1].check_edges(series.edges)
            members.append((dict(labels), series))
            self._tables[kind][key] = series
        return series

    def counter(self, name: str, **labels) -> Counter:
        return self._series("counter", series_key(name, labels), Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._series("gauge", series_key(name, labels), Gauge)

    def histogram(
        self, name: str, edges=DEFAULT_LATENCY_EDGES_S, **labels
    ) -> Histogram:
        return self._series(
            "histogram", series_key(name, labels), lambda: Histogram(edges)
        ).check_edges(edges)

    # ------------------------------------------------------------------
    def series(self, name: str) -> list:
        """Every ``(labels, series)`` registered under ``name``.

        A name outside the catalogue can hold no series, so reading one
        is a misspelling: it raises instead of reporting nothing.
        """
        family = self._families.get(name)
        if family is not None:
            return family[1]
        if name not in _CATALOGUE:
            raise ConfigurationError(f"metric {name!r} is not in METRIC_NAMES")
        return ()

    def total(self, name: str):
        """Sum of a counter over all its label sets (0 when absent)."""
        return sum(series.value for _, series in self.series(name))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot (the farm chunk-reply payload), keyed by
        :func:`series_key` spelling."""
        tables = self._tables
        return {
            "counters": {k: c.value for k, c in tables["counter"].items()},
            "gauges": {k: g.value for k, g in tables["gauge"].items()},
            "histograms": {
                k: h.to_dict() for k, h in tables["histogram"].items()
            },
        }

    def merge_dict(self, payload: dict) -> None:
        """Fold a :meth:`to_dict` payload into this registry.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge by bucket addition.  A key already in the table
        costs one dict hit; a new one is validated on the way in.
        """
        for key, value in payload.get("counters", {}).items():
            self._series("counter", key, Counter).inc(value)
        for key, value in payload.get("gauges", {}).items():
            self._series("gauge", key, Gauge).set(value)
        for key, incoming in payload.get("histograms", {}).items():
            self._series(
                "histogram", key, lambda: Histogram(incoming["edges"])
            ).merge_dict(incoming)

    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """Standard Prometheus text exposition of every series."""
        lines = []

        def sample(name, labels, value):
            lines.append(f"{series_key(name, labels)} {value}")

        for name in sorted(self._families):
            kind, members = self._families[name]
            lines.append(f"# TYPE {name} {kind}")
            for labels, series in sorted(members, key=lambda member: sorted(member[0].items())):
                if kind != "histogram":
                    sample(name, labels, _fmt(series.value))
                    continue
                cumulative = 0
                for edge, count in zip(series.edges + (math.inf,), series.counts):
                    cumulative += count
                    sample(name + "_bucket", {**labels, "le": _fmt(edge)}, cumulative)
                sample(name + "_sum", labels, _fmt(series.sum))
                sample(name + "_count", labels, cumulative)
        return "\n".join(lines) + "\n"
