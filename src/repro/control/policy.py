"""Path-budget policies: the control laws of the adaptive control plane.

FlexCore's headline claim is that the number of explored tree paths is a
*runtime dial* trading detection accuracy against compute (§3.3, Fig. 9).
This module turns the dial into closed-loop control laws: a policy
observes one cell's recent streaming behaviour (deadline hits, flush
latency, the latest flush's path search) once per control tick and
answers with the path budget the next flushes should run at.

Three policies, in increasing awareness:

* :class:`StaticPolicy` — a fixed budget; the identity control law.  A
  governed farm under a static policy at the detector's own path count
  is bit-identical to the ungoverned farm (pinned by the equivalence
  suite), which is what makes the control plane safe to leave attached.
* :class:`AimdPolicy` — TCP-style additive-increase /
  multiplicative-decrease on deadline misses: any late frame in the
  window multiplies the budget down, a clean window with latency
  headroom adds to it.  Channel-agnostic congestion control over
  compute.
* :class:`SnrAwarePolicy` — the paper's adaptive FlexCore (§3.3) lifted
  from per-subcarrier to per-cell budgeting: the *minimum* path count
  whose cumulative path probability covers ``1 - target_error_rate`` —
  the smallest budget meeting a target vector-error rate under the
  geometric model — read off the §3.1.1 search the cell's detector
  already ran for its latest flushed channel.

:func:`allocate_budget` closes the farm-level loop: given every cell's
desired budget and one global budget (total concurrent tree paths — the
software analogue of a fixed pool of processing elements), it
water-fills deterministically, guaranteeing each cell its floor.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.flexcore.preprocessing import covering_prefix


#: CLI names of the built-in policy catalogue — the one list the
#: runner's ``--governor`` choices, the experiment factory and the demo
#: all share.
POLICY_NAMES = ("static", "aimd", "snr")

#: AIMD: paths a clean, busy window adds; the factor a late window
#: applies; the slot-budget share a raised budget's peak must fit in.
INCREASE, BACKOFF, HEADROOM = 1, 0.5, 0.5


@dataclass(frozen=True)
class CellObservation:
    """What one cell looked like over one control window.

    Assembled by the governor from the scheduler's flush telemetry;
    policies consume it and nothing else, which keeps every control law
    pure and testable with synthetic observations.

    Attributes
    ----------
    cell_id:
        The observed cell.
    budget:
        Path budget that was in force during the window.
    frames:
        Detected frames in the window.
    frames_on_time / frames_late:
        Per-frame deadline accounting within the window.
    frames_shed:
        Frames refused by admission control during the window.
    max_latency_s:
        Worst flush latency (oldest arrival to completion) in the window.
    service_sum_s:
        Total *service* time (flush dispatch to completion, queueing
        excluded) over the window — the per-frame cost estimator's
        numerator.
    peak_flush_frames:
        Largest single flush (frames) the cell has ever produced — the
        observed peak slot load.
    slot_budget_s:
        The deadline budget flushes are measured against (``inf`` when
        the scheduler runs drain-driven).
    path_probabilities:
        The ``Pc`` row, in §3.1.1 pop order, of the latest flush's first
        channel (a view of the block the cell's detector searched), or
        ``None`` before the first flush and for a detector that runs no
        such search — the SNR-aware policy's input.
    """

    cell_id: str
    budget: int
    frames: int = 0
    frames_on_time: int = 0
    frames_late: int = 0
    frames_shed: int = 0
    max_latency_s: float = 0.0
    service_sum_s: float = 0.0
    peak_flush_frames: int = 0
    slot_budget_s: float = math.inf
    path_probabilities: "np.ndarray | None" = None

    @property
    def deadline_hit_rate(self) -> float:
        """Fraction of the window's detected frames that were on time."""
        total = self.frames_on_time + self.frames_late
        return self.frames_on_time / total if total else 1.0

    @property
    def mean_service_per_frame_s(self) -> float:
        """Measured service cost per frame at the window's budget."""
        return self.service_sum_s / self.frames if self.frames else 0.0

    @property
    def busy(self) -> bool:
        """Whether the window saw any traffic (detected or shed)."""
        return self.frames > 0 or self.frames_shed > 0


class PathBudgetPolicy:
    """Base class: a per-cell control law over the path budget.

    Every policy guarantees its output stays in
    ``[paths_min, paths_max]`` — the property the hypothesis suite
    pins.  Policies may be stateful (AIMD is); the governor
    :meth:`clone`\\ s the configured prototype once per cell so cells
    never share state.
    """

    name = "policy"

    def __init__(self, paths_min: int, paths_max: int):
        if paths_min < 1:
            raise ConfigurationError("paths_min must be >= 1")
        if paths_max < paths_min:
            raise ConfigurationError(
                f"paths_max ({paths_max}) must be >= paths_min ({paths_min})"
            )
        self.paths_min = int(paths_min)
        self.paths_max = int(paths_max)

    # ------------------------------------------------------------------
    def clamp(self, budget: float) -> int:
        return int(min(self.paths_max, max(self.paths_min, budget)))

    def initial_budget(self) -> int:
        """Budget before the first observation."""
        return self.paths_max

    def update(self, observation: CellObservation) -> int:
        """One control step: observation in, clamped budget out."""
        raise NotImplementedError

    def clone(self) -> "PathBudgetPolicy":
        """An independent per-cell instance of this configuration."""
        return copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(paths_min={self.paths_min}, "
            f"paths_max={self.paths_max})"
        )


class StaticPolicy(PathBudgetPolicy):
    """A fixed path budget — the identity control law.

    Attaching a governor under ``StaticPolicy(detector.num_paths)`` is
    bit-identical to running ungoverned (the equivalence suite pins
    this), so the control plane can stay wired in even when no
    adaptation is wanted.
    """

    name = "static"

    def __init__(self, paths: int):
        super().__init__(paths, paths)
        self.paths = int(paths)

    def initial_budget(self) -> int:
        return self.paths

    def update(self, observation: CellObservation) -> int:
        return self.paths


class AimdPolicy(PathBudgetPolicy):
    """Additive-increase / multiplicative-decrease on deadline misses.

    The classic congestion-control law applied to compute: a window
    containing any late frame multiplies the budget by :data:`BACKOFF`;
    a clean, busy window adds :data:`INCREASE` paths — but only through
    the **load-aware headroom gate**.  A naive latency gate probes
    straight into the deadline on bursty traffic: quiet windows have tiny
    flushes, so latency looks harmless, the budget climbs to the
    ceiling, and the next burst lands late.  Instead the gate predicts
    what the *peak* slot would cost at the raised budget — measured
    per-frame service time, scaled linearly to the candidate budget,
    times the largest flush the cell has ever produced (or the caller's
    ``peak_frames_hint``, e.g. ``subcarriers x 7`` when the radio's
    capacity is known) — and grows only while that prediction and the
    window's observed worst latency both fit inside :data:`HEADROOM` of
    the slot budget.

    ``start`` places the law anywhere in ``[paths_min, paths_max]``
    (default: the floor).  Under sustained misses the budget is monotone
    non-increasing down to ``paths_min`` (property-tested), the
    precondition for the governor's load-shedding escalation.
    """

    name = "aimd"

    def __init__(
        self,
        paths_min: int,
        paths_max: int,
        start: "int | None" = None,
        peak_frames_hint: "int | None" = None,
    ):
        super().__init__(paths_min, paths_max)
        if peak_frames_hint is not None and peak_frames_hint < 1:
            raise ConfigurationError("peak_frames_hint must be >= 1")
        self.peak_frames_hint = peak_frames_hint
        self._budget = self.clamp(paths_min if start is None else start)

    def initial_budget(self) -> int:
        return self._budget

    def _increase_is_safe(self, observation: CellObservation) -> bool:
        allowance = HEADROOM * observation.slot_budget_s
        if not math.isfinite(allowance):
            return True  # drain-driven operation: no deadline to protect
        if observation.max_latency_s > allowance:
            return False
        per_frame = observation.mean_service_per_frame_s
        peak = max(
            observation.peak_flush_frames, self.peak_frames_hint or 0
        )
        if per_frame <= 0.0 or peak <= 0:
            return True
        # Service cost scales ~linearly with the path budget; predict
        # the peak slot at the raised budget before committing to it.
        # The measurement was taken at the budget the window actually
        # ran at (observation.budget — a global path budget may have
        # clamped it below this policy's desire), so scale from there.
        raised = self.clamp(self._budget + INCREASE)
        predicted = per_frame * peak * raised / max(observation.budget, 1)
        return predicted <= allowance

    def update(self, observation: CellObservation) -> int:
        if observation.frames_late > 0:
            self._budget = self.clamp(math.floor(self._budget * BACKOFF))
        elif observation.frames > 0 and self._increase_is_safe(observation):
            self._budget = self.clamp(self._budget + INCREASE)
        return self._budget


class SnrAwarePolicy(PathBudgetPolicy):
    """Minimum budget meeting a target vector-error rate (a-FlexCore).

    The cell's detector has already run the §3.1.1 search for each
    flushed channel, under the level-error model
    (:mod:`repro.flexcore.probability`) on its QR's ``R`` diagonal; a
    stopping threshold only truncates the search's pop order.  So the
    number of paths a search stopping at ``1 - target_error_rate`` would
    expand — under the geometric model, the smallest budget whose
    unexplored probability, the modelled vector-error rate, is below
    target — is the prefix of the observed ``Pc`` row that covers it
    (:func:`~repro.flexcore.preprocessing.covering_prefix`, the rule the
    a-FlexCore detector applies per channel).  Well-conditioned channels
    collapse towards one path; harsh ones saturate at ``paths_max``, or
    at the detector's own path count when that is lower.  With no row —
    before the first flush, or a detector that searches no paths — the
    budget holds.

    This is the paper's adaptive FlexCore decision, made once per
    control tick per cell instead of once per subcarrier, at the cost of
    one cumulative sum.
    """

    name = "snr"

    def __init__(
        self,
        paths_min: int,
        paths_max: int,
        target_error_rate: float = 0.05,
    ):
        super().__init__(paths_min, paths_max)
        if not 0.0 < target_error_rate < 1.0:
            raise ConfigurationError(
                "target_error_rate must lie in (0, 1)"
            )
        self.target_error_rate = float(target_error_rate)
        self._budget = self.paths_max

    def initial_budget(self) -> int:
        return self._budget

    def update(self, observation: CellObservation) -> int:
        row = observation.path_probabilities
        if row is not None:
            self._budget = self.clamp(
                covering_prefix(row, len(row), 1.0 - self.target_error_rate)
            )
        return self._budget


def allocate_budget(
    desired: "dict[str, int]",
    total: int,
    floors: "dict[str, int] | int" = 1,
) -> "dict[str, int]":
    """Fit per-cell desired budgets under one global path budget.

    ``total`` bounds the *sum* of awarded budgets — the software
    analogue of a fixed pool of processing elements shared by the farm.
    When the desires fit, everyone gets what they asked; otherwise every
    cell is guaranteed its floor and the surplus is split proportionally
    to each cell's excess desire by largest remainder, with ties broken
    by cell id so the allocation is deterministic.

    When even the floors exceed ``total`` the floors are returned as-is
    (the pool is oversubscribed at minimum service); that is the
    governor's cue to start shedding load rather than degrade below the
    accuracy floor.
    """
    if total < 1:
        raise ConfigurationError("total path budget must be >= 1")
    if not desired:
        return {}
    if isinstance(floors, int):
        floors = {cell: floors for cell in desired}
    else:
        # A floor naming a cell nobody desires is almost always a typo'd
        # cell id — silently ignoring it would leave the real cell
        # unprotected at the default floor of 1.
        unknown = sorted(set(floors) - set(desired))
        if unknown:
            raise ConfigurationError(
                f"floors name cells not in desired: {unknown}; desired "
                f"cells: {sorted(desired)}"
            )
    for cell, want in desired.items():
        floor = floors.get(cell, 1)
        if want < floor:
            raise ConfigurationError(
                f"cell {cell!r} desires {want} below its floor {floor}"
            )
    if sum(desired.values()) <= total:
        return dict(desired)
    floor_sum = sum(floors.get(cell, 1) for cell in desired)
    if floor_sum >= total:
        return {cell: floors.get(cell, 1) for cell in desired}
    surplus = total - floor_sum
    excess = {
        cell: desired[cell] - floors.get(cell, 1) for cell in desired
    }
    excess_sum = sum(excess.values())
    shares = {
        cell: surplus * excess[cell] / excess_sum for cell in desired
    }
    awarded = {cell: int(math.floor(shares[cell])) for cell in desired}
    leftover = surplus - sum(awarded.values())
    # Largest remainder, cell id as the deterministic tie-break.
    order = sorted(
        desired, key=lambda cell: (awarded[cell] - shares[cell], cell)
    )
    for cell in order[:leftover]:
        awarded[cell] += 1
    return {
        cell: floors.get(cell, 1) + awarded[cell] for cell in desired
    }
