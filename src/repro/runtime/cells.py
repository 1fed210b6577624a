"""Multi-cell sharding: many cells, one execution backend.

The ROADMAP's "AP farm" direction: today's deployments run one stack
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

:class:`repro.api.UplinkStack` closes the loop back to the batch world:
on a streaming config its ``detect_batch`` routes every batch through
the streaming scheduler sharded across the farm's cells — which is what
``--streaming --cells N`` on the experiment runner uses, and what the
equivalence suite pins bit-identical to the direct batch route.  A
batch stack is the one-cell case of the same farm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detectors.base import Detector
from repro.errors import ConfigurationError
from repro.runtime.cache import CacheStats, ContextCache
from repro.runtime.scheduler import FlushRecord, StreamingScheduler
from repro.runtime.service import DetectionService
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
