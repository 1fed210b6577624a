"""AP-farm control-plane experiment: governed vs ungoverned under load.

Not a figure of the paper — a systems extension in its spirit: §5.2
frames detection against the LTE 500 µs slot budget, and §3.3's adaptive
FlexCore picks path counts from channel conditions.  This experiment
paces a seeded traffic scenario (:mod:`repro.control.workload`) through
the streaming cell farm twice — once ungoverned at the detector's full
path budget, once under a :class:`~repro.control.ComputeGovernor` — at a
slot interval deliberately calibrated into overload, and tabulates what
each run did with the same offered load: deadline hit-rate, sheds, flush
count, and the budget the governor actually ran at.

The whole stack — detector, backend, cell farm, governor — is described
by one :class:`repro.api.StackConfig` (the ``"farm-overload"`` preset is
this experiment's default shape) and assembled through
:func:`repro.api.build_stack`; the effective config is embedded in the
saved result, so a published JSON reproduces its own farm.

The interesting outcome (measured at a fixed overload by flexbench's
``governor.on_time_ratio.r90`` row): the ungoverned farm burns its
entire budget missing deadlines, while the governed farm trades paths —
accuracy the channel may not even need — for slots that arrive on time.
"""

from __future__ import annotations

import numpy as np

from repro.api import StackConfig, build_stack, presets
from repro.channel.fading import rayleigh_channels
from repro.control import WorkloadScenario
from repro.control.workload import SCENARIOS
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, get_profile
from repro.mimo.model import noise_variance_for_snr_db
from repro.ofdm.lte import SYMBOLS_PER_SLOT

#: Offered-load dial: slot interval = OVERLOAD x full-budget slot cost.
OVERLOAD = 0.6
SNR_DB = 20.0
#: Two 8x8 16-QAM cells on the array backend under AIMD in [2, 128]: the
#: path budget dominates the flush cost, giving the governor a wide dial.
FARM_STACK_CONFIG = presets.get("farm-overload")


def run(
    profile=None,
    workload: str = "bursty",
    stack_config: StackConfig = FARM_STACK_CONFIG,
) -> ExperimentResult:
    """Governed vs ungoverned farm on one seeded traffic scenario.

    ``stack_config`` is the governed streaming farm, detector included;
    the ungoverned baseline runs alongside on the same stack for the
    comparison.  ``workload`` picks the scenario shape (see
    :data:`repro.control.workload.SCENARIOS`).
    """
    profile = get_profile(profile)
    if workload not in SCENARIOS:
        raise ExperimentError(
            f"unknown workload {workload!r}; options: {', '.join(SCENARIOS)}"
        )
    if stack_config.detector is None or stack_config.governor is None:
        raise ExperimentError(
            "the farm experiment needs config.detector and config.governor "
            "set (a governed streaming farm)"
        )
    rng = np.random.default_rng(profile.seed)
    subcarriers = min(profile.subcarriers, 8)
    slots = max(6, min(40, profile.packets_per_point))
    system = stack_config.detector.system()
    noise_var = noise_variance_for_snr_db(SNR_DB)
    cell_ids = stack_config.farm.cell_ids()
    cell_channels = {
        cell_id: rayleigh_channels(
            subcarriers, system.num_rx_antennas, system.num_streams, rng
        )
        for cell_id in cell_ids
    }
    scenario = WorkloadScenario(
        scenario=workload,
        cells=cell_ids,
        slots=slots,
        subcarriers=subcarriers,
        seed=profile.seed,
    )

    result = ExperimentResult(
        experiment="farm",
        title="AP-farm control plane: governed vs ungoverned under load",
        profile=profile.name,
        columns=[
            "mode",
            "policy",
            "scenario",
            "cells",
            "frames_offered",
            "frames_detected",
            "frames_shed",
            "hit_rate",
            "flushes",
            "mean_budget",
        ],
        config=stack_config.to_dict(),
    )

    with build_stack(stack_config) as stack:
        # The ungoverned baseline runs at the detector's own path count
        # (which a config may set differently from the governor's
        # ceiling); budget-less detectors have no dial to report.
        full_budget = getattr(
            stack.detector, "num_paths", stack_config.governor.paths_max
        )
        slot_cost = stack.calibrate_slot_cost(
            scenario, cell_channels, noise_var
        )
        slot_interval = OVERLOAD * slot_cost

        runs = [
            ("ungoverned", "-", None),
            ("governed", stack_config.governor.policy, stack.governor),
        ]
        for mode, policy_name, gov in runs:
            outcome, telemetry = stack.run_streaming(
                scenario,
                cell_channels,
                noise_var,
                slot_interval_s=slot_interval,
                governor=gov,
            )
            if gov is None:
                mean_budget = float(full_budget)
            elif gov.telemetry.decisions:
                budgets = [d.budget for d in gov.telemetry.decisions]
                mean_budget = float(np.mean(budgets))
            else:
                # No control tick fired before the run ended: flushes
                # ran at the lanes' current (initial) budgets.
                lanes = gov.budgets().values()
                mean_budget = (
                    float(np.mean(list(lanes))) if lanes else float(
                        gov.policy.initial_budget()
                    )
                )
            result.add_row(
                mode=mode,
                policy=policy_name,
                scenario=workload,
                cells=len(cell_ids),
                frames_offered=outcome.frames_submitted,
                frames_detected=outcome.frames_detected,
                frames_shed=outcome.frames_shed,
                hit_rate=telemetry.deadline_hit_rate,
                flushes=telemetry.flushes,
                mean_budget=mean_budget,
            )
            result.record_runtime(
                f"scheduler_{mode}", telemetry.as_dict()
            )
            if gov is not None:
                result.record_runtime("governor", gov.as_dict())

    result.add_note(
        f"slot interval calibrated to {OVERLOAD:g}x the warm full-budget "
        f"slot cost ({slot_cost * 1e3:.1f} ms) — deliberate overload at "
        f"peak demand; {len(cell_ids)} cells x {subcarriers} subcarriers "
        f"x {SYMBOLS_PER_SLOT} symbols/slot on the {stack_config.backend.name} "
        "backend"
    )
    result.add_note(
        f"governed run: {stack_config.governor.policy} policy, paths in "
        f"[{stack_config.governor.paths_min}, {stack_config.governor.paths_max}]; "
        f"ungoverned runs fixed at {full_budget} paths"
    )
    return result
