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
neighbour's contexts).  Accounting is one ledger per farm
(``CellFarm.metrics``, labelled by cell): every scheduler the farm
opens folds its own run's ledger into it when its loop exits, and
:meth:`CellFarm.stats` is the per-cell view of that lifetime total.
With an observability hub the ledger *is* the hub's registry, so
``stats()`` and the Prometheus dump read the same numbers.

:class:`repro.api.UplinkStack` closes the loop back to the batch world:
on a streaming config its ``detect_batch`` routes every batch through
the streaming scheduler sharded across the farm's cells — which is what
``--streaming --cells N`` on the experiment runner uses, and what the
equivalence suite pins bit-identical to the direct batch route.  A
batch stack is the one-cell case of the same farm.
"""

from __future__ import annotations

from repro.detectors.base import Detector
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, cell_summaries
from repro.runtime.cache import CacheStats, ContextCache
from repro.runtime.scheduler import StreamingScheduler
from repro.runtime.service import DetectionService


class Cell:
    """One cell of the farm: a detector and a private cache."""

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

    def __init__(self, backend: str = "serial", obs=None):
        self.service = DetectionService(backend, obs=obs)
        #: The farm's observability hub: the service's (which already
        #: fell back to the process-global hub when none was given).
        self.obs = self.service.obs
        #: The farm's lifetime ledger: the hub's registry when there is
        #: a hub, a private one otherwise.
        self.metrics = self.obs.metrics if self.obs is not None else MetricsRegistry()
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
        """A streaming scheduler serving this farm's cells on its service
        (``kwargs``: :class:`StreamingScheduler`'s after ``farm``)."""
        return StreamingScheduler(self, **kwargs)

    def stats(self) -> "dict[str, dict]":
        """Per-cell view of the farm's ledger (every cell, flushed or
        not; see :func:`~repro.obs.ledger.cell_summaries`)."""
        return cell_summaries(self.metrics, self.cells)

    def cache_stats(self) -> "dict[str, CacheStats]":
        return {
            cell_id: cell.cache.stats
            for cell_id, cell in self.cells.items()
        }

    def clear_caches(self) -> None:
        for cell in self.cells.values():
            cell.cache.clear()

    def close(self) -> None:
        # The cells' cached blocks carry their walk plans, device memory
        # like the service's: closing releases both.
        self.clear_caches()
        self.service.close()

    def __enter__(self) -> "CellFarm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
