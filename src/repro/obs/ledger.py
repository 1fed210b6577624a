"""The accounting plane: one writer, its views, the exposition.

Every flush of the stack — a streaming scheduler's coalesced
micro-batch, or one ``detect_batch`` call of a batch stack — is counted
exactly once, by :meth:`FlushLedger.account`, into a
:class:`~repro.obs.metrics.MetricsRegistry` labelled by ``cell`` (and
``reason`` for the flush count).  Nothing else is kept: the scheduler
summary, the per-cell stats and the ``repro_deadline_hit_rate`` gauge
are *views* rendered from a ledger on demand, and ledgers fold with
:meth:`~repro.obs.metrics.MetricsRegistry.merge_dict` only — scheduler
into farm, chunk reply into coordinator, batch into link run — so a
number means the same whether it was summed over one process or N.
Ratios and means are derived after the fold, never stored.  The series
names are spelled here and in :data:`~repro.obs.metrics.METRIC_NAMES`,
nowhere else.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from repro.obs.metrics import DEADLINE_MARGIN_EDGES_S, Histogram, MetricsRegistry

__all__ = ["FlushLedger", "cell_summaries", "exposition", "scheduler_summary"]


class FlushLedger:
    """The one writer of streaming accounting, over the registry it
    writes to (``metrics``; a fresh one by default — every scheduler run
    owns its own).  A cell's series are resolved once, so a flush costs
    attribute loads, not labelled lookups."""

    def __init__(self, metrics: "MetricsRegistry | None" = None):
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._cells: dict = {}

    def _cell(self, cell: str):
        series = self._cells.get(cell)
        if series is None:
            m = self.metrics
            series = self._cells[cell] = SimpleNamespace(
                submitted=m.counter("repro_frames_submitted_total", cell=cell),
                shed=m.counter("repro_frames_shed_total", cell=cell),
                detected=m.counter("repro_frames_detected_total", cell=cell),
                late=m.counter("repro_frames_late_total", cell=cell),
                groups=m.counter("repro_groups_flushed_total", cell=cell),
                hits=m.counter("repro_prepare_cache_hits_total", cell=cell),
                misses=m.counter("repro_prepare_cache_misses_total", cell=cell),
                evictions=m.counter("repro_prepare_cache_evictions_total", cell=cell),
                entries=m.gauge("repro_prepare_cache_entries", cell=cell),
                latency=m.histogram("repro_flush_latency_seconds", cell=cell),
                # Created by the first flush that needs them: a flush
                # reason, a finite deadline, a transfer-metering module.
                flushes={},
                margin=None,
                transfers=None,
            )
        return series

    def run_started(self) -> None:
        """One tick per scheduler run, so a lane that served nothing
        still shows up in a fold (``summaries_merged``)."""
        self.metrics.counter("repro_scheduler_runs_total").inc()

    def submitted(self, cell: str, frames: int) -> None:
        self._cell(cell).submitted.inc(frames)

    def shed(self, cell: str, frames: int) -> None:
        self._cell(cell).shed.inc(frames)

    def account(self, record, groups, late, cache, transfers=None) -> None:
        """Count one flush: its :class:`~repro.runtime.scheduler
        .FlushRecord`, the ``late`` frames of groups that completed
        after *their own* deadline, and the service call's ``cache`` /
        ``transfers`` deltas (``None``: the array module does not
        meter).
        """
        metrics, cell = self.metrics, record.cell
        series = self._cell(cell)
        flushes = series.flushes.get(record.reason)
        if flushes is None:
            flushes = series.flushes[record.reason] = metrics.counter(
                "repro_flushes_total", cell=cell, reason=record.reason
            )
        flushes.inc()
        series.detected.inc(record.frames)
        series.late.inc(late)
        series.groups.inc(groups)
        series.hits.inc(cache.hits)
        series.misses.inc(cache.misses)
        series.evictions.inc(cache.evictions)
        series.entries.set(cache.entries)
        series.latency.observe(record.latency_s)
        if record.deadline_s != math.inf:
            if series.margin is None:
                series.margin = metrics.histogram(
                    "repro_deadline_margin_seconds", DEADLINE_MARGIN_EDGES_S, cell=cell
                )
            # Signed completion-minus-deadline margin: negative = early.
            series.margin.observe(record.completed_s - record.deadline_s)
        if transfers is not None:
            if series.transfers is None:
                series.transfers = (
                    metrics.counter("repro_uploads_total", cell=cell),
                    metrics.counter("repro_upload_bytes_total", cell=cell),
                    metrics.counter("repro_downloads_total", cell=cell),
                    metrics.counter("repro_download_bytes_total", cell=cell),
                )
            uploads, upload_bytes, downloads, download_bytes = series.transfers
            uploads.inc(transfers.uploads)
            upload_bytes.inc(transfers.upload_bytes)
            downloads.inc(transfers.downloads)
            download_bytes.inc(transfers.download_bytes)


# -- views ---------------------------------------------------------------
_CACHE_SERIES = {
    "hits": "repro_prepare_cache_hits_total",
    "misses": "repro_prepare_cache_misses_total",
    "evictions": "repro_prepare_cache_evictions_total",
    "entries": "repro_prepare_cache_entries",
}
_TRANSFER_SERIES = {
    "uploads": "repro_uploads_total",
    "upload_bytes": "repro_upload_bytes_total",
    "downloads": "repro_downloads_total",
    "download_bytes": "repro_download_bytes_total",
}


def _hit_rate(detected, late) -> float:
    """Fraction of detected frames whose group beat its deadline."""
    return (detected - late) / detected if detected else 1.0


def _by(metrics: MetricsRegistry, name: str, label: str = "cell") -> dict:
    """``{label value: summed series value}`` of one metric."""
    column: dict = {}
    for labels, series in metrics.series(name):
        column[labels[label]] = column.get(labels[label], 0) + series.value
    return column


def cell_summaries(metrics: MetricsRegistry, cells=()) -> "dict[str, dict]":
    """Per-cell stats view of a ledger: ``{cell_id: {...}}``.

    ``cache`` is the cell's accumulated movement (``entries``: latest
    occupancy); ``transfers`` appears once the cell has flushed through
    a transfer-metering array module.  ``cells`` names cells that must
    appear even before their first flush.
    """
    frames = _by(metrics, "repro_frames_detected_total")
    late = _by(metrics, "repro_frames_late_total")
    flushes = _by(metrics, "repro_flushes_total")
    shed = _by(metrics, "repro_frames_shed_total")
    cache = {key: _by(metrics, name) for key, name in _CACHE_SERIES.items()}
    transfers = {key: _by(metrics, name) for key, name in _TRANSFER_SERIES.items()}
    summaries = {}
    for cell in dict.fromkeys((*cells, *frames)):
        detected, missed = frames.get(cell, 0), late.get(cell, 0)
        summaries[cell] = {
            "frames": detected,
            "flushes": flushes.get(cell, 0),
            "frames_on_time": detected - missed,
            "frames_late": missed,
            "frames_shed": shed.get(cell, 0),
            "deadline_hit_rate": _hit_rate(detected, missed),
            "cache": {key: column.get(cell, 0) for key, column in cache.items()},
        }
        if cell in transfers["uploads"]:
            summaries[cell]["transfers"] = {
                key: column[cell] for key, column in transfers.items()
            }
    return summaries


def scheduler_summary(metrics: MetricsRegistry) -> dict:
    """Scheduler-summary view of a ledger (one run's, or any fold).

    ``summaries_merged`` counts the scheduler runs folded in and
    ``frames_missing`` (submitted − detected − shed) the frames that
    vanished rather than being served or refused, so a roll-up that
    lost a lane is countable; rates, the mean and the percentiles are
    recomputed from the folded counters and buckets.
    """
    detected = metrics.total("repro_frames_detected_total")
    late = metrics.total("repro_frames_late_total")
    submitted = metrics.total("repro_frames_submitted_total")
    shed = metrics.total("repro_frames_shed_total")
    reasons = _by(metrics, "repro_flushes_total", "reason")
    flushes = sum(reasons.values())
    latency = Histogram()
    for _, series in metrics.series("repro_flush_latency_seconds"):
        latency.merge(series)
    return {
        "frames_submitted": submitted,
        "frames_detected": detected,
        "frames_on_time": detected - late,
        "frames_late": late,
        "frames_shed": shed,
        "frames_missing": submitted - detected - shed,
        "flushes": flushes,
        "groups_flushed": metrics.total("repro_groups_flushed_total"),
        "flush_reasons": reasons,
        "deadline_hit_rate": _hit_rate(detected, late),
        "mean_latency_s": latency.sum / flushes if flushes else 0.0,
        "max_latency_s": latency.max or 0.0,
        "latency_sum_s": latency.sum,
        "latency_percentiles": latency.quantiles(),
        "latency_hist": latency.to_dict(),
        **{key: metrics.total(name) for key, name in _TRANSFER_SERIES.items()},
        "summaries_merged": metrics.total("repro_scheduler_runs_total"),
    }


def exposition(metrics: MetricsRegistry) -> str:
    """Prometheus text of a ledger plus its one derived series:
    ``repro_deadline_hit_rate``, computed here from the dump's own
    late / detected counters (a ratio stored per flush would fold
    last-writer-wins across workers)."""
    text = metrics.prometheus_text()
    if metrics.series("repro_frames_detected_total"):
        rate = _hit_rate(
            metrics.total("repro_frames_detected_total"),
            metrics.total("repro_frames_late_total"),
        )
        text += f"# TYPE repro_deadline_hit_rate gauge\nrepro_deadline_hit_rate {rate!r}\n"
    return text
