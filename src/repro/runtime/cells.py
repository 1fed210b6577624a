"""Multi-cell sharding: many cells, one execution backend.

The ROADMAP's "AP farm" direction: today's deployments run one engine
per cell; this module lets N cells register against one
:class:`~repro.runtime.scheduler.StreamingScheduler` and share a single
in-process execution backend (serial / array) through the common
:class:`~repro.runtime.service.DetectionService`, the way RaPro's
multi-server architecture pools baseband compute across radio heads.
(Cells spread over *processes* are :mod:`repro.farm`: each supervised
worker hosts a farm of this module's cells.)
Sharing stops at the compute: every cell keeps its **own**
:class:`~repro.runtime.cache.ContextCache` (channels from different
cells never collide, and one cell's coherence churn cannot evict a
neighbour's contexts) and its **own** :class:`CellStats`.

:class:`StreamingUplinkEngine` closes the loop back to the batch world:
it exposes the exact ``detect_batch`` surface of
:class:`~repro.runtime.engine.BatchedUplinkEngine` but routes every
batch through the streaming scheduler sharded across N cells — which is
what ``--streaming --cells N`` on the experiment runner uses, and what
the equivalence suite pins bit-identical to the batch engine.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.detectors.base import Detector
from repro.errors import ConfigurationError, LoadShedError
from repro.runtime.batch import (
    BatchDetectionResult,
    RuntimeStats,
    UplinkBatch,
)
from repro.runtime.cache import CacheStats, ContextCache
from repro.runtime.scheduler import (
    FlushRecord,
    FrameArrival,
    StreamingScheduler,
    merge_scheduler_summaries,
)
from repro.runtime.service import DetectionService, supports_soft
from repro.utils.flops import NULL_COUNTER, FlopCounter
from repro.utils.xp import TransferStats


@dataclass
class CellStats:
    """Per-cell streaming counters, updated on every flush.

    The cell's cache movement lives in the ``cache``
    :class:`~repro.runtime.cache.CacheStats` snapshot (accumulated
    flush deltas); the flat ``contexts_prepared`` / ``cache_hits``
    aliases from the pre-snapshot era were deprecated in PR 4/5 and
    have been removed.
    """

    frames: int = 0
    flushes: int = 0
    frames_on_time: int = 0
    frames_late: int = 0
    #: Frames refused by the control plane's admission control.
    frames_shed: int = 0
    #: The cell's accumulated cache movement (hits/misses/evictions are
    #: summed flush deltas; ``entries`` is the latest occupancy).
    cache: CacheStats = field(default_factory=CacheStats)
    #: Accumulated host↔device transfer movement, present only once the
    #: cell has flushed through a transfer-metering array module (see
    #: :class:`~repro.utils.xp.CountingArrayModule`).
    transfers: "TransferStats | None" = None

    def account(
        self,
        record: FlushRecord,
        cache_delta: CacheStats,
        frames_on_time: "int | None" = None,
        transfers: "TransferStats | None" = None,
    ) -> None:
        self.frames += record.frames
        self.flushes += 1
        if frames_on_time is None:
            frames_on_time = record.frames if record.deadline_met else 0
        self.frames_on_time += frames_on_time
        self.frames_late += record.frames - frames_on_time
        self.cache = CacheStats(
            hits=self.cache.hits + cache_delta.hits,
            misses=self.cache.misses + cache_delta.misses,
            evictions=self.cache.evictions + cache_delta.evictions,
            entries=cache_delta.entries,
        )
        if transfers is not None:
            base = self.transfers or TransferStats()
            self.transfers = base.plus(transfers)

    @property
    def deadline_hit_rate(self) -> float:
        total = self.frames_on_time + self.frames_late
        return self.frames_on_time / total if total else 1.0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (what ``UplinkStack.stats`` surfaces)."""
        payload = {
            "frames": self.frames,
            "flushes": self.flushes,
            "frames_on_time": self.frames_on_time,
            "frames_late": self.frames_late,
            "frames_shed": self.frames_shed,
            "deadline_hit_rate": self.deadline_hit_rate,
            "cache": self.cache.as_dict(),
        }
        if self.transfers is not None:
            payload["transfers"] = self.transfers.as_dict()
        return payload


class Cell:
    """One cell of the farm: a detector, a private cache, its stats."""

    def __init__(
        self,
        cell_id: str,
        detector: Detector,
        max_cache_entries: int = 1024,
    ):
        if not isinstance(detector, Detector):
            raise ConfigurationError(
                f"cell {cell_id!r} needs a Detector instance, got "
                f"{type(detector).__name__}"
            )
        self.cell_id = str(cell_id)
        self.detector = detector
        self.cache = ContextCache(max_entries=max_cache_entries)
        self.stats = CellStats()

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.cell_id!r}, {self.detector.name})"


class CellFarm:
    """A registry of cells sharing one :class:`DetectionService`.

    Usage::

        farm = CellFarm(backend="array")
        for i in range(4):
            farm.add_cell(f"cell{i}", FlexCoreDetector(system, num_paths=32))
        async with farm.scheduler(slot_budget_s=budget) as sched:
            await sched.submit(FrameArrival(..., cell="cell2"))
    """

    def __init__(
        self,
        backend: str = "serial",
        service: "DetectionService | None" = None,
        obs=None,
    ):
        if service is None:
            self.service = DetectionService(backend, obs=obs)
            self._owns_service = True
        else:
            self.service = service
            self._owns_service = False
        #: The farm's observability hub: the service's (which already
        #: fell back to the process-global hub when none was given).
        self.obs = self.service.obs
        self.cells: "dict[str, Cell]" = {}

    # ------------------------------------------------------------------
    def add_cell(
        self,
        cell_id: str,
        detector: Detector,
        max_cache_entries: int = 1024,
    ) -> Cell:
        if cell_id in self.cells:
            raise ConfigurationError(f"cell {cell_id!r} already registered")
        cell = Cell(cell_id, detector, max_cache_entries=max_cache_entries)
        self.cells[cell_id] = cell
        return cell

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells.values())

    def __getitem__(self, cell_id: str) -> Cell:
        return self.cells[cell_id]

    # ------------------------------------------------------------------
    def scheduler(self, **kwargs) -> StreamingScheduler:
        """A streaming scheduler serving this farm's cells on its service."""
        kwargs.setdefault("obs", self.obs)
        return StreamingScheduler(self.cells, service=self.service, **kwargs)

    def stats(self) -> "dict[str, CellStats]":
        return {cell_id: cell.stats for cell_id, cell in self.cells.items()}

    def cache_stats(self) -> "dict[str, CacheStats]":
        return {
            cell_id: cell.cache.stats
            for cell_id, cell in self.cells.items()
        }

    def clear_caches(self) -> None:
        for cell in self.cells.values():
            cell.cache.clear()

    def close(self) -> None:
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "CellFarm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamingUplinkEngine:
    """``detect_batch`` adapter over the streaming multi-cell scheduler.

    Drop-in for :class:`~repro.runtime.engine.BatchedUplinkEngine`
    wherever the synchronous batch API is expected (``simulate_link``,
    the experiment harness): each batch is exploded into per-subcarrier
    :class:`~repro.runtime.scheduler.FrameArrival` events, sharded
    round-robin across ``cells`` cells, streamed through a scheduler on
    the shared backend, and reassembled bit-identically.  Per-cell
    context caches persist across calls, so coherence amortisation
    matches the batch engine.

    ``slot_budget_s`` defaults to ``inf`` — offline replay is paced by
    the caller, not by the air interface, so flushing is target- and
    drain-driven and the deadline telemetry stays quiet.  Pass a finite
    budget to model the real-time contract.
    """

    def __init__(
        self,
        detector: Detector,
        backend: str = "serial",
        cells: int = 1,
        batch_target: "int | None" = None,
        slot_budget_s: float = float("inf"),
        flush_margin_s: float = 0.0,
        max_cache_entries: int = 1024,
        governor=None,
        cell_prefix: str = "cell",
        cell_offset: int = 0,
        obs=None,
    ):
        if cells < 1:
            raise ConfigurationError("cells must be >= 1")
        if cell_offset < 0:
            raise ConfigurationError("cell_offset must be >= 0")
        self.detector = detector
        self.farm = CellFarm(backend, obs=obs)
        for index in range(cells):
            self.farm.add_cell(
                f"{cell_prefix}{cell_offset + index}",
                detector,
                max_cache_entries=max_cache_entries,
            )
        self.num_cells = int(cells)
        self.batch_target = batch_target
        self.slot_budget_s = slot_budget_s
        self.flush_margin_s = float(flush_margin_s)
        #: Optional :class:`~repro.control.governor.ComputeGovernor`
        #: attached to every scheduler this engine spins up; persists
        #: across ``detect_batch`` calls so control state (AIMD budgets,
        #: shed flags) carries over a sweep.
        self.governor = governor
        #: Telemetry of the most recent ``detect_batch`` call (long
        #: sweeps make thousands of calls — only the last is retained;
        #: cumulative accounting lives in the per-cell ``CellStats``).
        self.last_telemetry = None
        #: Cumulative scheduler summary over every ``detect_batch`` of
        #: this engine's lifetime (mergeable counters; see
        #: :func:`~repro.runtime.scheduler.merge_scheduler_summaries`).
        self.scheduler_summary: "dict | None" = None

    # ------------------------------------------------------------------
    @property
    def backend(self):
        return self.farm.service.backend

    @property
    def obs(self):
        """The farm's observability hub (``None`` untraced)."""
        return self.farm.obs

    @property
    def supports_soft(self) -> bool:
        return supports_soft(self.detector)

    @property
    def cache_stats(self) -> "dict[str, CacheStats]":
        return self.farm.cache_stats()

    @property
    def cell_stats(self) -> "dict[str, CellStats]":
        return self.farm.stats()

    def clear_cache(self) -> None:
        self.farm.clear_caches()

    def close(self) -> None:
        self.farm.close()

    def __enter__(self) -> "StreamingUplinkEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def detect_batch(
        self,
        channels,
        received=None,
        noise_var: "float | None" = None,
        counter: FlopCounter = NULL_COUNTER,
        use_soft: bool = False,
    ) -> BatchDetectionResult:
        """Stream one uplink batch through the cell farm and reassemble."""
        if isinstance(channels, UplinkBatch):
            batch = channels
        else:
            batch = UplinkBatch(
                channels=channels, received=received, noise_var=noise_var
            )
        return asyncio.run(self._detect(batch, counter, use_soft))

    async def _detect(
        self, batch: UplinkBatch, counter: FlopCounter, use_soft: bool
    ) -> BatchDetectionResult:
        cache_before = self.farm.cache_stats()
        target = (
            self.batch_target
            if self.batch_target is not None
            else max(1, batch.num_frames)
        )
        cell_ids = sorted(self.farm.cells)
        async with self.farm.scheduler(
            batch_target=target,
            slot_budget_s=self.slot_budget_s,
            flush_margin_s=self.flush_margin_s,
            use_soft=use_soft,
            counter=counter,
            governor=self.governor,
        ) as scheduler:
            futures = []
            for sc in range(batch.num_subcarriers):
                arrival = FrameArrival(
                    channel=batch.channels[sc],
                    received=batch.received[sc],
                    noise_var=batch.noise_var,
                    cell=cell_ids[sc % self.num_cells],
                )
                futures.append(await scheduler.submit(arrival))
            await scheduler.flush()
            # Await every future before raising anything: a mid-loop
            # raise would abandon the rest ("exception was never
            # retrieved") and lose the telemetry of work already done.
            detections = await asyncio.gather(
                *futures, return_exceptions=True
            )
            telemetry = scheduler.telemetry
        # Record the accounting of whatever work completed *before*
        # raising anything — error paths must not lose telemetry.
        self.last_telemetry = telemetry
        self.scheduler_summary = merge_scheduler_summaries(
            self.scheduler_summary, telemetry.as_dict()
        )
        shed = sum(
            1 for d in detections if isinstance(d, LoadShedError)
        )
        for detection in detections:
            if isinstance(detection, BaseException) and not isinstance(
                detection, LoadShedError
            ):
                raise detection
        if shed:
            # detect_batch promises a full (S, F, Nt) result; admission
            # control punched holes in it, so the batch as a whole is
            # refused — with the accounting intact.
            raise LoadShedError(
                f"admission control shed {shed} of {len(futures)} "
                "subcarrier arrivals of this batch; the batch adapter "
                "cannot return a partial block (detach the governor or "
                "raise its floor budget for offline replay)"
            )
        indices = np.stack([d.indices for d in detections])
        llrs = (
            np.stack([d.llrs for d in detections]) if use_soft else None
        )
        cache_delta = {
            cell_id: after.since(cache_before[cell_id])
            for cell_id, after in self.farm.cache_stats().items()
        }
        stats = RuntimeStats(
            {
                "backend": self.backend.name,
                "streaming": True,
                "cells": self.num_cells,
                "subcarriers": batch.num_subcarriers,
                "frames": batch.num_frames,
                "scheduler": telemetry.as_dict(),
                # Per-cell cache snapshot ({cell_id: CacheStats}).
                "cache": cache_delta,
            }
        )
        return BatchDetectionResult(
            indices=indices,
            llrs=llrs,
            per_subcarrier_metadata=[d.metadata for d in detections],
            stats=stats,
        )
