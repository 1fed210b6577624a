"""Seeded traffic scenarios for exercising the governed AP farm.

The governor only earns its keep under interesting load, and "interesting"
has many shapes: a steady hum, memoryless Poisson chatter, on/off bursts,
a diurnal ramp, a flash crowd.  This module generates all of them from
one seed, as a per-slot demand matrix — how many subcarriers each cell
lights up in each LTE slot — so governed behaviour can be exercised,
tested and benchmarked reproducibly across diverse load shapes.

Two layers:

* :class:`WorkloadScenario` — the pure generator: ``demand()`` returns a
  ``slots x cells`` table of active-subcarrier counts, deterministic in
  the seed.  No asyncio, no radio — property-testable shape logic.
* :func:`slot_arrivals` / :func:`pace_scenario` — the materialisation:
  turn one slot's demand row into
  :class:`~repro.runtime.scheduler.FrameArrival` bursts (7 symbol
  vectors per active subcarrier, per the LTE framing) and pace per-slot
  arrival lists through a running scheduler at a fixed slot interval,
  collecting detections and :class:`~repro.errors.LoadShedError` sheds.
  :class:`repro.api.UplinkStack` opens the schedulers
  (``run_streaming`` / ``calibrate_slot_cost``).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, LoadShedError
from repro.mimo.model import apply_channel
from repro.modulation.mapper import random_symbol_indices
from repro.ofdm.lte import SYMBOLS_PER_SLOT
from repro.runtime.scheduler import FrameArrival

#: The scenario catalogue.
SCENARIOS = ("steady", "poisson", "bursty", "diurnal", "flash-crowd")


@dataclass(frozen=True)
class WorkloadScenario:
    """A seeded per-slot traffic shape over the cells of a farm.

    Attributes
    ----------
    scenario:
        One of :data:`SCENARIOS`.
    cells:
        Cell ids, in demand-table column order.
    slots:
        Number of LTE slots the scenario spans.
    subcarriers:
        Peak active subcarriers per cell per slot (the capacity of the
        radio front-end).
    utilization:
        Mean load as a fraction of peak, where the shape permits.
    seed:
        Every random draw derives from this seed — equal seeds give
        equal demand tables.
    on_probability / off_recovery:
        ``bursty`` Markov chain: probability an *off* cell turns on,
        and an *on* cell stays on, per slot.
    flash_start / flash_length:
        ``flash-crowd`` spike window as fractions of the run.
    """

    scenario: str
    cells: tuple
    slots: int
    subcarriers: int
    utilization: float = 0.6
    seed: int = 2017
    on_probability: float = 0.35
    off_recovery: float = 0.65
    flash_start: float = 0.4
    flash_length: float = 0.25

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; options: "
                f"{', '.join(SCENARIOS)}"
            )
        if self.slots < 1:
            raise ConfigurationError("slots must be >= 1")
        if self.subcarriers < 1:
            raise ConfigurationError("subcarriers must be >= 1")
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigurationError("utilization must lie in (0, 1]")
        if not self.cells:
            raise ConfigurationError("scenario needs at least one cell")
        object.__setattr__(self, "cells", tuple(self.cells))

    # ------------------------------------------------------------------
    def demand(self) -> "list[dict[str, int]]":
        """Per-slot ``{cell: active subcarriers}`` rows, seeded."""
        rng = np.random.default_rng(self.seed)
        peak = self.subcarriers
        base = self.utilization * peak
        rows: "list[dict[str, int]]" = []
        if self.scenario == "bursty":
            on = rng.random(len(self.cells)) < 0.5
        for slot in range(self.slots):
            row: "dict[str, int]" = {}
            if self.scenario == "bursty":
                flips = rng.random(len(self.cells))
                on = np.where(
                    on,
                    flips < self.off_recovery,
                    flips < self.on_probability,
                )
            for index, cell in enumerate(self.cells):
                if self.scenario == "steady":
                    count = round(base)
                elif self.scenario == "poisson":
                    count = int(min(peak, rng.poisson(base)))
                elif self.scenario == "bursty":
                    count = peak if on[index] else round(0.15 * base)
                elif self.scenario == "diurnal":
                    # Half-sine over the run: quiet edges, busy middle.
                    phase = math.sin(math.pi * (slot + 0.5) / self.slots)
                    count = round(base * (0.25 + 0.75 * phase) / 0.8125)
                else:  # flash-crowd
                    start = int(self.flash_start * self.slots)
                    stop = start + max(
                        1, int(self.flash_length * self.slots)
                    )
                    count = (
                        peak if start <= slot < stop else round(0.5 * base)
                    )
                row[cell] = int(min(peak, max(0, count)))
            rows.append(row)
        return rows

    def offered_frames(
        self, symbols_per_slot: int = SYMBOLS_PER_SLOT
    ) -> int:
        """Total frames the scenario offers (burst size x demand)."""
        return symbols_per_slot * sum(
            count for row in self.demand() for count in row.values()
        )


def slot_arrivals(
    demand_row: "dict[str, int]",
    cell_channels: "dict[str, np.ndarray]",
    system,
    noise_var: float,
    rng: np.random.Generator,
    symbols_per_slot: int = SYMBOLS_PER_SLOT,
) -> "list[FrameArrival]":
    """Materialise one demand row as per-subcarrier slot bursts.

    Each active subcarrier contributes one arrival of
    ``symbols_per_slot`` random symbol vectors pushed through that
    subcarrier's channel.  The first ``count`` subcarriers of each cell
    are used, so a cell's channels recur across slots and the per-cell
    context caches see realistic coherence.
    """
    arrivals = []
    constellation = system.constellation
    for cell_id, count in demand_row.items():
        channels = cell_channels[cell_id]
        if count > channels.shape[0]:
            raise ConfigurationError(
                f"cell {cell_id!r} demand {count} exceeds its "
                f"{channels.shape[0]} subcarrier channels"
            )
        for sc in range(count):
            indices = random_symbol_indices(
                symbols_per_slot,
                system.num_streams,
                constellation,
                rng,
            )
            arrivals.append(
                FrameArrival(
                    channel=channels[sc],
                    received=apply_channel(
                        channels[sc],
                        constellation.points[indices],
                        noise_var,
                        rng,
                    ),
                    noise_var=noise_var,
                    cell=cell_id,
                )
            )
    return arrivals


@dataclass
class ScenarioOutcome:
    """What came back from pacing one scenario through a scheduler."""

    frames_submitted: int = 0
    frames_detected: int = 0
    frames_shed: int = 0
    elapsed_s: float = 0.0
    #: Kept out of ``repr``: ``asyncio.run`` formats its task — result
    #: included — on the way out, and printing every detection's arrays
    #: there costs more than detecting them.
    detections: list = field(default_factory=list, repr=False)


async def pace_scenario(
    scheduler,
    slots,
    slot_interval_s: float = 0.0,
    keep_detections: bool = False,
) -> ScenarioOutcome:
    """Pace per-slot arrival lists through a *running* scheduler.

    The one submit -> flush -> gather loop every streaming driver shares
    (:meth:`repro.api.UplinkStack.pace` opens the scheduler around it).
    ``slots`` is any iterable of per-slot
    :class:`~repro.runtime.scheduler.FrameArrival` lists and is consumed
    lazily — slot ``n`` is materialised (its rng draws made) only once
    its paced start time ``n x slot_interval_s`` has come; an interval
    of 0 plays the slots back-to-back.  Everything is flushed and
    awaited at the end — every future before anything is raised, so no
    result is abandoned — and shed arrivals
    (:class:`~repro.errors.LoadShedError`) are folded into the outcome
    instead of raising: shedding is a governed farm's *designed*
    overload behaviour, not a failure of the driver.
    """
    if slot_interval_s < 0:
        raise ConfigurationError("slot_interval_s must be >= 0")
    outcome = ScenarioOutcome()
    futures = []
    start = time.monotonic()
    for slot, arrivals in enumerate(slots):
        delay = start + slot * slot_interval_s - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        for arrival in arrivals:
            outcome.frames_submitted += arrival.num_frames
            futures.append(
                (arrival.num_frames, await scheduler.submit(arrival))
            )
    await scheduler.flush()
    results = await asyncio.gather(
        *(future for _, future in futures), return_exceptions=True
    )
    for (frames, _), result in zip(futures, results):
        if isinstance(result, LoadShedError):
            outcome.frames_shed += frames
        elif isinstance(result, BaseException):
            raise result
        else:
            outcome.frames_detected += frames
            if keep_detections:
                outcome.detections.append(result)
    outcome.elapsed_s = time.monotonic() - start
    return outcome
