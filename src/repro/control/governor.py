"""The closed-loop compute governor over the streaming runtime.

PR 3's scheduler *measures* the real-time contract (per-flush latency,
deadline hits) but never acts on it: under overload it misses slots,
under light load it leaves accuracy on the table.  The
:class:`ComputeGovernor` closes the loop — the software control plane
van der Perre et al. (arXiv:1807.05882) argue massive-MIMO basebands
need to stay inside a compute/power envelope, in the spirit of RaPro's
(arXiv:1704.04573) control layer over a PHY pipeline:

* the :class:`~repro.runtime.scheduler.StreamingScheduler` feeds it
  every :class:`~repro.runtime.scheduler.FlushRecord` (plus the path
  search of its first channel, for SNR-aware policies) and asks it for
  the current per-cell path budget before each service call;
* once per **control tick** the governor assembles a
  :class:`~repro.control.policy.CellObservation` per cell, runs that
  cell's :class:`~repro.control.policy.PathBudgetPolicy`, optionally
  fits the answers under a global path budget
  (:func:`~repro.control.policy.allocate_budget`), and installs the new
  budgets — which take effect on the very next flush;
* when a cell is already at its floor budget and still missing
  deadlines, no budget cut can save the slot: the governor escalates to
  **admission control**, shedding that cell's new arrivals (each shed
  future fails with :class:`~repro.errors.LoadShedError`) until a
  control window passes clean again.  Shedding a minority of slots
  explicitly beats missing all of them silently.

The governor is clock-free (the scheduler passes ``now`` into every
call that reads time), so control behaviour is simulation-testable without asyncio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.control.policy import (
    CellObservation,
    PathBudgetPolicy,
    allocate_budget,
)
from repro.errors import ConfigurationError
from repro.obs import NULL_TRACER, SPAN_GOVERNOR_TICK

#: Admission-control hysteresis: a cell whose dial is exhausted starts
#: shedding when a window's hit-rate falls below ``SHED_BELOW``; while
#: shedding, every ``PROBE_EVERY``-th arrival is admitted as a probe, and
#: the cell resumes when a window's probes meet their deadlines at
#: ``RESUME_ABOVE`` or better (or the window was idle).
SHED_BELOW = 0.5
RESUME_ABOVE = 0.95
PROBE_EVERY = 8


@dataclass(frozen=True)
class GovernorDecision:
    """One cell's outcome of one control tick."""

    tick: int
    time_s: float
    cell: str
    budget: int
    frames: int
    frames_late: int
    frames_shed: int
    deadline_hit_rate: float
    shedding: bool


@dataclass
class GovernorTelemetry:
    """Control-plane counters: ticks, budget moves, shed episodes."""

    ticks: int = 0
    budget_increases: int = 0
    budget_decreases: int = 0
    sheds_started: int = 0
    sheds_ended: int = 0
    frames_shed: int = 0
    decisions: list = field(default_factory=list)
    max_decisions: int = 4096
    decisions_dropped: int = 0

    def record(self, decision: GovernorDecision) -> None:
        if len(self.decisions) < self.max_decisions:
            self.decisions.append(decision)
        else:
            self.decisions_dropped += 1

    def budget_trajectory(self, cell: str) -> "list[int]":
        """The recorded budget sequence of one cell, tick order."""
        return [d.budget for d in self.decisions if d.cell == cell]

    def as_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "budget_increases": self.budget_increases,
            "budget_decreases": self.budget_decreases,
            "sheds_started": self.sheds_started,
            "sheds_ended": self.sheds_ended,
            "frames_shed": self.frames_shed,
            "decisions_dropped": self.decisions_dropped,
        }


class _Lane:
    """Per-cell control state: the policy instance plus one window."""

    def __init__(self, cell_id: str, policy: PathBudgetPolicy):
        self.cell_id = cell_id
        self.policy = policy
        self.budget = policy.initial_budget()
        self.shedding = False
        self.shed_streak = 0  # arrivals seen since shedding began
        self.path_probabilities: "np.ndarray | None" = None
        self.peak_flush_frames = 0  # lifetime, not per window
        self.reset_window()

    def reset_window(self) -> None:
        self.frames = 0
        self.frames_on_time = 0
        self.frames_late = 0
        self.frames_shed = 0
        self.latency_max_s = 0.0
        self.service_sum_s = 0.0

    def observation(self, slot_budget_s: float) -> CellObservation:
        return CellObservation(
            cell_id=self.cell_id,
            budget=self.budget,
            frames=self.frames,
            frames_on_time=self.frames_on_time,
            frames_late=self.frames_late,
            frames_shed=self.frames_shed,
            max_latency_s=self.latency_max_s,
            service_sum_s=self.service_sum_s,
            peak_flush_frames=self.peak_flush_frames,
            slot_budget_s=slot_budget_s,
            path_probabilities=self.path_probabilities,
        )


class ComputeGovernor:
    """Load-aware path-budget governor with admission control.

    Parameters
    ----------
    policy:
        The :class:`~repro.control.policy.PathBudgetPolicy` prototype;
        every cell gets its own :meth:`~PathBudgetPolicy.clone` so
        stateful policies (AIMD) never share state across cells.
    total_path_budget:
        Optional global budget: the sum of awarded per-cell budgets
        never exceeds it (see
        :func:`~repro.control.policy.allocate_budget`).

    The scheduler it attaches to binds its slot budget
    (:meth:`bind_slot_budget`): observations are framed against it, and
    control ticks are spaced by it — on every opportunity the scheduler
    offers while the budget is unbounded or not yet bound.  Shedding
    follows :data:`SHED_BELOW`, :data:`RESUME_ABOVE` and
    :data:`PROBE_EVERY`.
    """

    #: Span tracer control ticks record under; the scheduler swaps in a
    #: live one when observability is on.
    tracer = NULL_TRACER

    def __init__(
        self,
        policy: PathBudgetPolicy,
        total_path_budget: "int | None" = None,
    ):
        if not isinstance(policy, PathBudgetPolicy):
            raise ConfigurationError(
                "ComputeGovernor needs a PathBudgetPolicy, got "
                f"{type(policy).__name__}"
            )
        if total_path_budget is not None and total_path_budget < 1:
            raise ConfigurationError("total_path_budget must be >= 1")
        self.policy = policy
        self.total_path_budget = total_path_budget
        #: The attached scheduler's deadline budget; ``None`` until bound.
        self.slot_budget_s: "float | None" = None
        self.telemetry = GovernorTelemetry()
        self._lanes: "dict[str, _Lane]" = {}
        self._last_tick_s: "float | None" = None

    # ------------------------------------------------------------------
    def _lane(self, cell_id: str) -> _Lane:
        lane = self._lanes.get(cell_id)
        if lane is None:
            lane = _Lane(cell_id, self.policy.clone())
            self._lanes[cell_id] = lane
        return lane

    @property
    def _interval_s(self) -> float:
        """One slot budget between ticks; 0 while it is unbounded."""
        if self.slot_budget_s is not None and math.isfinite(
            self.slot_budget_s
        ):
            return self.slot_budget_s
        return 0.0

    # -- scheduler-facing hooks ----------------------------------------
    def bind_slot_budget(self, slot_budget_s: float) -> None:
        """Adopt the attaching scheduler's deadline frame of reference.

        Every attach rebinds, so a governor reused across schedulers
        (e.g. a stack's governor surviving many ``detect_batch`` calls,
        then attached to a real-time farm) always judges observations
        against the budget currently in force.
        """
        self.slot_budget_s = slot_budget_s

    def path_budget(self, cell_id: str) -> int:
        """The budget the next flush of ``cell_id`` should run at."""
        return self._lane(cell_id).budget

    def admit(self, cell_id: str, frames: int) -> bool:
        """Admission control: False means shed this arrival.

        While shedding, every :data:`PROBE_EVERY`-th arrival is still
        let through — the probe traffic whose deadline fate decides
        whether the cell may resume (see :data:`RESUME_ABOVE`).
        """
        lane = self._lane(cell_id)
        if lane.shedding:
            lane.shed_streak += 1
            if lane.shed_streak % PROBE_EVERY == 0:
                return True  # probe
            lane.frames_shed += frames
            self.telemetry.frames_shed += frames
            return False
        return True

    def observe_flush(
        self,
        cell_id: str,
        record,
        frames_on_time: "int | None" = None,
        path_probabilities: "np.ndarray | None" = None,
    ) -> None:
        """Account one :class:`~repro.runtime.scheduler.FlushRecord`;
        ``path_probabilities`` is its first channel's pop-order ``Pc``
        row (see :class:`~repro.control.policy.CellObservation`)."""
        lane = self._lane(cell_id)
        if frames_on_time is None:
            frames_on_time = record.frames if record.deadline_met else 0
        lane.frames += record.frames
        lane.frames_on_time += frames_on_time
        lane.frames_late += record.frames - frames_on_time
        lane.latency_max_s = max(lane.latency_max_s, record.latency_s)
        lane.service_sum_s += record.completed_s - record.flushed_s
        lane.peak_flush_frames = max(lane.peak_flush_frames, record.frames)
        if path_probabilities is not None:
            lane.path_probabilities = path_probabilities

    def maybe_tick(self, now: float) -> bool:
        """Run a control tick if the interval elapsed; returns whether."""
        if self._last_tick_s is None:
            self._last_tick_s = now
            return False
        if now - self._last_tick_s < self._interval_s:
            return False
        self.tick(now)
        return True

    # -- the control law ------------------------------------------------
    def tick(self, now: float) -> None:
        """One control step over every known cell."""
        if not self.tracer.enabled:
            self._tick(now)
            return
        with self.tracer.span(SPAN_GOVERNOR_TICK) as span:
            self._tick(now)
            span.set(
                tick=self.telemetry.ticks,
                budgets={
                    cell_id: lane.budget
                    for cell_id, lane in self._lanes.items()
                },
                shedding=[
                    cell_id
                    for cell_id, lane in self._lanes.items()
                    if lane.shedding
                ],
            )

    def _tick(self, now: float) -> None:
        self._last_tick_s = now
        self.telemetry.ticks += 1
        slot_budget = (
            self.slot_budget_s if self.slot_budget_s is not None else math.inf
        )
        desired: "dict[str, int]" = {}
        observations: "dict[str, CellObservation]" = {}
        for cell_id, lane in self._lanes.items():
            observation = lane.observation(slot_budget)
            observations[cell_id] = observation
            desired[cell_id] = lane.policy.update(observation)
        if self.total_path_budget is not None and desired:
            floors = {
                cell_id: lane.policy.paths_min
                for cell_id, lane in self._lanes.items()
            }
            desired = allocate_budget(
                desired, self.total_path_budget, floors
            )
        for cell_id, lane in self._lanes.items():
            observation = observations[cell_id]
            budget = desired[cell_id]
            if budget > lane.budget:
                self.telemetry.budget_increases += 1
            elif budget < lane.budget:
                self.telemetry.budget_decreases += 1
            lane.budget = budget
            self._update_shedding(lane, observation, budget)
            self.telemetry.record(
                GovernorDecision(
                    tick=self.telemetry.ticks,
                    time_s=now,
                    cell=cell_id,
                    budget=budget,
                    frames=observation.frames,
                    frames_late=observation.frames_late,
                    frames_shed=observation.frames_shed,
                    deadline_hit_rate=observation.deadline_hit_rate,
                    shedding=lane.shedding,
                )
            )
            lane.reset_window()

    def _update_shedding(
        self, lane: _Lane, observation: CellObservation, budget: int
    ) -> None:
        if not lane.shedding:
            # Escalate only when the budget dial is exhausted: the
            # policy has no further cut to offer — it is at its floor,
            # or it answered a badly-missing window without lowering
            # the budget that window ran at (SNR-aware and static
            # policies never cut on misses) — and the window missed
            # badly enough that the next one is not expected to
            # recover on its own.
            dial_exhausted = (
                budget <= lane.policy.paths_min
                or budget >= observation.budget
            )
            if (
                dial_exhausted
                and observation.frames_late > 0
                and observation.deadline_hit_rate < SHED_BELOW
            ):
                lane.shedding = True
                lane.shed_streak = 0
                self.telemetry.sheds_started += 1
        else:
            # Resume only on evidence: a window whose admitted probes
            # met their deadlines at RESUME_ABOVE or better, or a
            # completely idle window (nothing offered, nothing shed).
            probes_recovered = (
                observation.frames > 0
                and observation.deadline_hit_rate >= RESUME_ABOVE
            )
            if probes_recovered or not observation.busy:
                lane.shedding = False
                self.telemetry.sheds_ended += 1

    # -- fleet coordination ----------------------------------------------
    def desired_budgets(self, cell_ids=None) -> "dict[str, int]":
        """Per-cell budgets the local control law currently wants.

        The fleet-coordination *desires*: a
        :class:`~repro.farm.coordinator.FarmCoordinator` collects these
        from every worker's governor, fits them under the one global
        path budget with
        :func:`~repro.control.policy.allocate_budget`, and pushes the
        awards back through :meth:`install_budgets`.  ``cell_ids``
        (optional) forces lanes into existence for cells that have not
        flushed yet, so a fleet tick covers every cell from the first
        window.
        """
        for cell_id in cell_ids or ():
            self._lane(cell_id)
        return {
            cell_id: lane.budget for cell_id, lane in self._lanes.items()
        }

    def floor_budgets(self, cell_ids=None) -> "dict[str, int]":
        """Per-cell floors (``policy.paths_min``) for global allocation."""
        for cell_id in cell_ids or ():
            self._lane(cell_id)
        return {
            cell_id: lane.policy.paths_min
            for cell_id, lane in self._lanes.items()
        }

    def install_budgets(self, budgets: "dict[str, int]") -> None:
        """Install externally-awarded budgets (a global allocation).

        Each award is clamped to the lane policy's ``[paths_min,
        paths_max]`` and takes effect on the cell's next flush; budget
        moves are counted in the governor telemetry like local ticks.
        Stateful policies (AIMD) keep their own internal state — the
        next local tick proposes from where the policy left off, with
        the coordinator again fitting the proposal globally.
        """
        for cell_id, budget in budgets.items():
            lane = self._lane(cell_id)
            awarded = lane.policy.clamp(int(budget))
            if awarded > lane.budget:
                self.telemetry.budget_increases += 1
            elif awarded < lane.budget:
                self.telemetry.budget_decreases += 1
            lane.budget = awarded

    # -- reporting -------------------------------------------------------
    def budgets(self) -> "dict[str, int]":
        return {
            cell_id: lane.budget for cell_id, lane in self._lanes.items()
        }

    def shedding(self) -> "dict[str, bool]":
        return {
            cell_id: lane.shedding
            for cell_id, lane in self._lanes.items()
        }

    def as_dict(self) -> dict:
        payload = self.telemetry.as_dict()
        payload["policy"] = self.policy.name
        payload["budgets"] = self.budgets()
        payload["shedding"] = self.shedding()
        return payload
