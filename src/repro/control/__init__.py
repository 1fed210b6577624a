"""Adaptive control plane over the streaming detection runtime.

FlexCore's flexibility — the path count as a runtime accuracy/compute
dial (§3.3) — meets the scheduler's real-time telemetry (PR 3) here:

* :mod:`repro.control.policy` — the control laws: static, AIMD on
  deadline misses, and the SNR-aware minimum-budget policy built on the
  :mod:`repro.flexcore.probability` level-error model, plus the global
  path-budget water-filling allocator;
* :mod:`repro.control.governor` — :class:`ComputeGovernor`, the
  closed-loop governor the scheduler consults per flush and ticks per
  control interval, escalating to admission control (load shedding)
  when the floor budget cannot meet the slot deadline;
* :mod:`repro.control.workload` — seeded traffic scenario generation
  (steady, Poisson, bursty, diurnal, flash-crowd) and the pacing driver
  that exercises a governed farm against those shapes.
"""

from repro.control.governor import (
    ComputeGovernor,
    GovernorDecision,
    GovernorTelemetry,
)
from repro.control.policy import (
    POLICY_NAMES,
    AimdPolicy,
    CellObservation,
    PathBudgetPolicy,
    SnrAwarePolicy,
    StaticPolicy,
    allocate_budget,
)
from repro.control.workload import (
    SCENARIOS,
    ScenarioOutcome,
    WorkloadScenario,
    pace_scenario,
    slot_arrivals,
)

__all__ = [
    "AimdPolicy",
    "CellObservation",
    "ComputeGovernor",
    "GovernorDecision",
    "GovernorTelemetry",
    "PathBudgetPolicy",
    "POLICY_NAMES",
    "SCENARIOS",
    "ScenarioOutcome",
    "SnrAwarePolicy",
    "StaticPolicy",
    "WorkloadScenario",
    "allocate_budget",
    "pace_scenario",
    "slot_arrivals",
]
