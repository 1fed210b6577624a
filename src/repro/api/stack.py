"""``build_stack``: one :class:`StackConfig` in, one live stack out.

The assembly half of the config-first API: takes the declarative
:class:`~repro.api.specs.StackConfig` and wires the same objects the
repo's callers used to construct by hand — detector,
:class:`~repro.runtime.service.DetectionService`,
:class:`~repro.runtime.cells.CellFarm` with its per-cell caches,
:class:`~repro.runtime.scheduler.StreamingScheduler` and
:class:`~repro.control.governor.ComputeGovernor` — behind the
:class:`UplinkStack` facade, the only object between a config and the
service.  The equivalence suite pins the facade bit-identical to a
hand-held service + cache and to a hand-built farm + scheduler across
serial / array x batch / streaming x governed / ungoverned, so nothing
is lost by going through the config.  A stack is one process with two in-process routes
(``BackendSpec("serial")``, the per-subcarrier reference, and
``BackendSpec("array")``, the stacked walk); the one multi-process
mechanism is :class:`~repro.farm.coordinator.FarmCoordinator`, which
splits one ``StackConfig`` across N supervised worker processes, each
building its slice through this same function.
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np

from repro import native
from repro.api.specs import StackConfig
from repro.control.workload import (
    WorkloadScenario,
    pace_scenario,
    slot_arrivals,
)
from repro.detectors.base import Detector
from repro.errors import ConfigurationError, LoadShedError
from repro.obs import FlushLedger, get_global, scheduler_summary
from repro.ofdm.lte import SYMBOLS_PER_SLOT
from repro.runtime.batch import BatchDetectionResult, UplinkBatch
from repro.runtime.cells import CellFarm
from repro.runtime.scheduler import FLUSH_BATCH, FlushRecord, FrameArrival
from repro.runtime.service import supports_soft
from repro.utils.flops import NULL_COUNTER, FlopCounter

#: Sentinel: "use the stack's configured governor" (``None`` must stay
#: expressible — it means "run this scenario ungoverned").
_CONFIGURED = object()


class UplinkStack:
    """A fully-assembled detection stack behind one context manager.

    Built by :func:`build_stack`; not constructed directly.  It holds
    the :class:`~repro.runtime.service.DetectionService` (``service``),
    the :class:`~repro.runtime.cells.CellFarm` (a batch stack is the
    one-cell case) and the one ``governor``, and exposes:

    * :meth:`detect_batch` — the synchronous batch API: straight into
      the service on a batch stack, streamed through the farm on a
      streaming one (bit-identical);
    * :meth:`pace` — the one streaming driver, with
      :meth:`run_streaming` / :meth:`calibrate_slot_cost` playing a
      seeded :class:`~repro.control.workload.WorkloadScenario` through
      it (streaming stacks only);
    * :meth:`stats` — one JSON-friendly snapshot of the stack's
      accounting: views of the farm's one ledger (per-cell stats, cache
      movement, scheduler summary) plus the governor summary and the
      walk's lane (:func:`repro.native.status`);
    * :meth:`close` — release backend resources; idempotent, and also
      run by the context manager.
    """

    def __init__(
        self,
        config: StackConfig,
        detector: Detector,
        farm: CellFarm,
        governor=None,
    ):
        self.config = config
        self.detector = detector
        self.service = farm.service
        #: The one :class:`~repro.control.governor.ComputeGovernor`
        #: every scheduler of this stack attaches; it outlives them, so
        #: control state (AIMD budgets, shed flags) carries over a sweep.
        self.governor = governor
        #: The stack's :class:`~repro.obs.Observability` hub (tracer +
        #: metrics registry), or None when tracing is off — which stops
        #: spans and the exposition, not the counting.
        self.obs = farm.obs
        self._farm = farm
        #: What a batch stack hands the service: its one cell's cache.
        self._cache = farm[self.cell_ids[0]].cache
        #: The batch route's writer, straight into the farm's ledger
        #: (streamed flushes get there through their scheduler's fold).
        self._ledger = FlushLedger(farm.metrics)
        self._closed = False

    # -- surface ---------------------------------------------------------
    @property
    def backend(self):
        """The execution backend the stack runs on."""
        return self.service.backend

    @property
    def streaming(self) -> bool:
        return self.config.farm.streaming

    @property
    def supports_soft(self) -> bool:
        """Whether the stack's detector produces per-bit LLRs."""
        return supports_soft(self.detector)

    @property
    def cache_stats(self):
        """Cache snapshot(s): one, or ``{cell_id: CacheStats}``."""
        if self.streaming:
            return self._farm.cache_stats()
        return self._cache.stats

    @property
    def farm(self) -> CellFarm:
        """The :class:`~repro.runtime.cells.CellFarm` (streaming only)."""
        self._require_streaming("farm")
        return self._farm

    @property
    def cell_ids(self) -> "tuple[str, ...]":
        return self.config.farm.cell_ids()

    def clear_cache(self) -> None:
        """Invalidate cached contexts (coherence-interval boundary)."""
        self._farm.clear_caches()

    def detect_batch(
        self,
        channels,
        received=None,
        noise_var: "float | None" = None,
        counter: FlopCounter = NULL_COUNTER,
        use_soft: bool = False,
    ) -> BatchDetectionResult:
        """Detect one uplink batch.

        Accepts either an :class:`~repro.runtime.batch.UplinkBatch` or
        the raw ``(channels, received, noise_var)`` triple with shapes
        ``(S, Nr, Nt)`` / ``(S, F, Nr)``.
        """
        if isinstance(channels, UplinkBatch):
            batch = channels
        else:
            batch = UplinkBatch(
                channels=channels, received=received, noise_var=noise_var
            )
        if self.config.farm.streaming:
            return self._stream_batch(batch, counter, use_soft)
        # One call is one flush of the stack's one cell.
        cell, width = self.cell_ids[0], batch.num_subcarriers
        frames = width * batch.num_frames
        self._ledger.submitted(cell, frames)
        start = time.monotonic()
        result = self.service.detect(
            self.detector,
            batch,
            cache=self._cache,
            counter=counter,
            use_soft=use_soft,
        )
        record = FlushRecord(
            cell, FLUSH_BATCH, width, frames, start, start, time.monotonic(), math.inf
        )
        self._ledger.account(
            record, width, 0, result.stats["cache"], result.stats.get("transfers")
        )
        return result

    def _stream_batch(
        self, batch: UplinkBatch, counter: FlopCounter, use_soft: bool
    ) -> BatchDetectionResult:
        """Stream one batch through the cell farm and reassemble:
        per-subcarrier arrivals sharded round-robin over the cells,
        played as one back-to-back slot (target- and drain-driven
        unless the spec sets a slot budget), stacked in order."""
        cache_before = self._farm.cache_stats()
        cell_ids = self.cell_ids
        arrivals = [
            FrameArrival(
                channel=batch.channels[sc],
                received=batch.received[sc],
                noise_var=batch.noise_var,
                cell=cell_ids[sc % len(cell_ids)],
            )
            for sc in range(batch.num_subcarriers)
        ]
        outcome, telemetry = self.pace(
            [arrivals],
            batch_target=max(1, batch.num_frames),
            keep_detections=True,
            use_soft=use_soft,
            counter=counter,
        )
        if outcome.frames_shed:
            # detect_batch promises a full (S, F, Nt) result; admission
            # control punched holes in it, so the batch as a whole is
            # refused — with the accounting intact.
            raise LoadShedError(
                f"admission control shed "
                f"{outcome.frames_shed // batch.num_frames} of "
                f"{len(arrivals)} subcarrier arrivals of this batch; the "
                "batch adapter cannot return a partial block (detach the "
                "governor or raise its floor budget for offline replay)"
            )
        detections = outcome.detections
        cache_delta = {
            cell_id: after.since(cache_before[cell_id])
            for cell_id, after in self._farm.cache_stats().items()
        }
        stats = {
            "backend": self.backend.name,
            "streaming": True,
            "cells": len(cell_ids),
            "subcarriers": batch.num_subcarriers,
            "frames": batch.num_frames,
            "scheduler": telemetry.as_dict(),
            # What the summary was rendered from: callers that run many
            # batches fold these payloads, not the summaries.
            "ledger": telemetry.metrics.to_dict(),
            # Per-cell cache snapshot ({cell_id: CacheStats}).
            "cache": cache_delta,
        }
        return BatchDetectionResult(
            indices=np.stack([d.indices for d in detections]),
            llrs=(
                np.stack([d.llrs for d in detections]) if use_soft else None
            ),
            per_subcarrier_metadata=[d.metadata for d in detections],
            stats=stats,
        )

    # -- streaming workloads -------------------------------------------
    def _require_streaming(self, what: str) -> None:
        if not self.config.farm.streaming:
            raise ConfigurationError(
                f"{what} requires a streaming stack; this config is "
                f"batch ({self.config.describe()})"
            )

    def pace(
        self,
        slots,
        slot_interval_s: float = 0.0,
        batch_target: int = SYMBOLS_PER_SLOT,
        slot_budget_s: "float | None" = None,
        governor=_CONFIGURED,
        keep_detections: bool = False,
        use_soft: bool = False,
        counter: FlopCounter = NULL_COUNTER,
    ):
        """Pace per-slot arrival lists through one fresh scheduler.

        The only place the stack opens a scheduler, so the only place
        the configured :class:`~repro.api.specs.SchedulerSpec` meets a
        driver's defaults.  The spec's ``batch_target`` wins over the
        caller's; the deadline budget is the caller's ``slot_budget_s``
        if given, else the spec's, else the pacing interval — the
        real-time contract of a paced run, unbounded back-to-back
        (``slot_interval_s == 0``).  ``governor`` defaults to the
        configured one; ``None`` runs ungoverned.  ``slots`` is consumed
        lazily (see :func:`~repro.control.workload.pace_scenario`).

        The scheduler's ledger folds into the farm's — what
        :meth:`stats` reads — when its loop exits, error or not: error
        paths must not lose the accounting of work already done.

        Returns ``(ScenarioOutcome, SchedulerTelemetry)``.
        """
        self._require_streaming("pace")
        spec = self.config.scheduler
        if spec.batch_target is not None:
            batch_target = spec.batch_target
        if slot_budget_s is None:
            slot_budget_s = spec.slot_budget_s
        if slot_budget_s is None:
            slot_budget_s = slot_interval_s if slot_interval_s > 0 else math.inf
        scheduler = self._farm.scheduler(
            batch_target=batch_target,
            slot_budget_s=slot_budget_s,
            governor=self.governor if governor is _CONFIGURED else governor,
            use_soft=use_soft,
            counter=counter,
        )

        async def paced():
            async with scheduler:
                return await pace_scenario(
                    scheduler, slots, slot_interval_s, keep_detections
                )

        return asyncio.run(paced()), scheduler.telemetry

    def calibrate_slot_cost(
        self,
        scenario: WorkloadScenario,
        cell_channels: dict,
        noise_var: float,
        seed: "int | None" = None,
    ) -> float:
        """Warm wall-clock cost of one full-load slot through the farm.

        The calibration protocol every governed-farm driver (experiment,
        demo, bench, farm worker) shares: one cold pass at peak demand
        fills the per-cell context caches, one warm pass prices the
        steady-state slot — ungoverned, i.e. at the detectors' *full*
        budget, with deadlines off and the configured flush shape.
        Offered-load dials (``interval = overload x cost``) hang off
        this number.
        """
        self._require_streaming("calibrate_slot_cost")
        peak_row = {cell: scenario.subcarriers for cell in scenario.cells}
        system = self.detector.system

        def one_pass() -> float:
            start = time.perf_counter()
            rng = np.random.default_rng(
                scenario.seed if seed is None else seed
            )
            peak = slot_arrivals(
                peak_row, cell_channels, system, noise_var, rng
            )
            self.pace([peak], slot_budget_s=math.inf, governor=None)
            return time.perf_counter() - start

        one_pass()  # cold: fill the per-cell caches
        return one_pass()  # warm: the steady-state slot cost

    def run_streaming(
        self,
        scenario: WorkloadScenario,
        cell_channels: dict,
        noise_var: float,
        slot_interval_s: "float | None" = None,
        overload: float = 1.0,
        governor=_CONFIGURED,
        seed: "int | None" = None,
        keep_detections: bool = False,
    ):
        """Pace one scenario through the streaming farm.

        ``slot_interval_s=None`` calibrates first (one warm full-load
        slot) and paces at ``overload x`` that cost — the shared
        protocol of the farm experiment, the adaptive-farm demo and the
        governor bench.  ``governor`` defaults to the stack's configured
        one; pass ``None`` explicitly to run the same farm ungoverned
        (e.g. for a baseline comparison on warm caches).  Scheduler
        settings resolve as in :meth:`pace`.

        Returns ``(ScenarioOutcome, SchedulerTelemetry)``.
        """
        self._require_streaming("run_streaming")
        if slot_interval_s is None:
            slot_interval_s = overload * self.calibrate_slot_cost(
                scenario, cell_channels, noise_var
            )
        if slot_interval_s <= 0:
            raise ConfigurationError("slot_interval_s must be positive")
        rng = np.random.default_rng(
            scenario.seed + 1 if seed is None else seed
        )
        system = self.detector.system
        slots = (
            slot_arrivals(row, cell_channels, system, noise_var, rng)
            for row in scenario.demand()
        )
        return self.pace(
            slots,
            slot_interval_s,
            governor=governor,
            keep_detections=keep_detections,
        )

    # -- accounting ----------------------------------------------------
    def stats(self) -> dict:
        """One JSON-friendly snapshot of the whole stack's accounting."""
        payload = {
            "config": self.config.to_dict(),
            "backend": self.backend.name,
            "streaming": self.streaming,
            # Which lane the walk takes in this process, and why.
            "native": native.status(),
        }
        if self.streaming:
            cells = payload["cells"] = self._farm.stats()
            payload["cache"] = {
                cell_id: row["cache"] for cell_id, row in cells.items()
            }
            summary = scheduler_summary(self._farm.metrics)
            if summary["summaries_merged"]:
                payload["scheduler"] = summary
        else:
            payload["cache"] = self.cache_stats.as_dict()
        if self.governor is not None:
            payload["governor"] = self.governor.as_dict()
        return payload

    # -- observability -------------------------------------------------
    def _require_obs(self, what: str):
        if self.obs is None:
            raise ConfigurationError(
                f"{what} requires tracing; enable it with "
                "TracingSpec(enabled=True) in the config (or the "
                "runner's --trace flag)"
            )
        return self.obs

    def export_trace(self, path) -> None:
        """Write the stack's Chrome trace-event JSON to ``path``."""
        self._require_obs("export_trace").export_trace(path)

    def dump_metrics(self, path) -> None:
        """Write the Prometheus metrics exposition to ``path``."""
        self._require_obs("dump_metrics").dump_metrics(path)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release backend resources; safe to call more than once."""
        if not self._closed:
            self._farm.close()
            self._closed = True

    def __enter__(self) -> "UplinkStack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UplinkStack({self.config.describe()})"


def build_stack(
    config: StackConfig, detector: "Detector | None" = None
) -> UplinkStack:
    """Assemble a live :class:`UplinkStack` from one :class:`StackConfig`.

    ``detector`` overrides ``config.detector`` with a pre-built instance
    — the hook experiments that sweep many detectors over one runtime
    stack use (the config then describes the runtime; the caller owns
    the detector).  With both absent there is nothing to drive:
    :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(config, StackConfig):
        raise ConfigurationError(
            f"build_stack needs a StackConfig, got {type(config).__name__}"
        )
    if detector is None:
        if config.detector is None:
            raise ConfigurationError(
                "this StackConfig has no detector spec; pass a built "
                "detector (build_stack(config, detector=...)) or set "
                "config.detector"
            )
        detector = config.detector.build()
    elif not isinstance(detector, Detector):
        raise ConfigurationError(
            f"detector override must be a Detector, got "
            f"{type(detector).__name__}"
        )
    # A process-global hub (the runner's --trace) takes precedence over
    # the config's own spec; either way a single hub spans the stack.
    obs = get_global()
    if obs is None:
        obs = config.tracing.build()
    farm = CellFarm(config.backend.build(), obs=obs)
    for cell_id in config.farm.cell_ids():
        farm.add_cell(
            cell_id, detector, max_cache_entries=config.cache.max_entries
        )
    governor = (
        config.governor.build() if config.governor is not None else None
    )
    return UplinkStack(config, detector, farm, governor)
