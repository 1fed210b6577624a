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

from dataclasses import replace

import numpy as np

from repro.api import (
    BackendSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
    build_stack,
)
from repro.channel.fading import rayleigh_channels
from repro.control import POLICY_NAMES, WorkloadScenario
from repro.control.workload import SCENARIOS
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.common import ExperimentResult, get_profile
from repro.mimo.model import noise_variance_for_snr_db
from repro.modulation.constellation import QamConstellation
from repro.ofdm.lte import SYMBOLS_PER_SLOT

#: Path-budget range the governed run may move within.
PATHS_MIN = 2
PATHS_MAX = 128
#: Offered-load dial: slot interval = OVERLOAD x full-budget slot cost.
OVERLOAD = 0.6
SNR_DB = 20.0


def make_policy(
    name: str,
    constellation: QamConstellation,
    peak_frames: "int | None" = None,
):
    """The governed run's policy prototype, by CLI name.

    Kept as the pre-``repro.api`` surface; equivalent to
    ``GovernorSpec(policy=name, ...).build_policy(constellation)``.
    """
    if name not in POLICY_NAMES:
        raise ExperimentError(
            f"unknown governor policy {name!r}; options: "
            f"{', '.join(POLICY_NAMES)}"
        )
    return GovernorSpec(
        policy=name,
        paths_min=PATHS_MIN,
        paths_max=PATHS_MAX,
        peak_frames_hint=peak_frames,
    ).build_policy(constellation)


def _effective_config(
    stack_config: "StackConfig | None",
    governor: str,
    backend: str,
    cells: int,
    subcarriers: int,
) -> StackConfig:
    """The farm stack this run executes: explicit config, or defaults.

    An explicit config must describe a governed streaming farm with a
    detector; missing pieces are filled with this experiment's defaults
    so a runtime-only config (e.g. flags layered by the runner) still
    runs the reference farm.
    """
    explicit = stack_config is not None
    if not explicit:
        stack_config = StackConfig(backend=BackendSpec(backend))
    detector = stack_config.detector or DetectorSpec(
        "flexcore", 8, 8, 16, params={"num_paths": PATHS_MAX}
    )
    if explicit and stack_config.farm.streaming:
        farm = stack_config.farm
    else:
        farm = FarmSpec(streaming=True, cells=max(1, int(cells)))
    governor_spec = stack_config.governor or GovernorSpec(
        policy=governor,
        paths_min=PATHS_MIN,
        paths_max=PATHS_MAX,
        peak_frames_hint=subcarriers * SYMBOLS_PER_SLOT,
    )
    scheduler = stack_config.scheduler
    if scheduler == SchedulerSpec():
        scheduler = SchedulerSpec(batch_target=SYMBOLS_PER_SLOT)
    return replace(
        stack_config,
        detector=detector,
        farm=farm,
        scheduler=scheduler,
        governor=governor_spec,
    )


def run(
    profile=None,
    governor: str = "aimd",
    workload: str = "bursty",
    backend: str = "array",
    cells: int = 2,
    stack_config: "StackConfig | None" = None,
) -> ExperimentResult:
    """Governed vs ungoverned farm on one seeded traffic scenario.

    ``governor`` picks the governed run's policy (``static`` / ``aimd``
    / ``snr``), ``workload`` the scenario shape (see
    :data:`repro.control.workload.SCENARIOS`); the ungoverned baseline
    always runs alongside for the comparison.  ``stack_config`` (e.g.
    the ``"farm-overload"`` preset, or the runner's ``--config``) is
    authoritative over the individual flags.
    """
    profile = get_profile(profile)
    if workload not in SCENARIOS:
        raise ExperimentError(
            f"unknown workload {workload!r}; options: {', '.join(SCENARIOS)}"
        )
    rng = np.random.default_rng(profile.seed)
    subcarriers = min(profile.subcarriers, 8)
    slots = max(6, min(40, profile.packets_per_point))
    try:
        config = _effective_config(
            stack_config, governor, backend, cells, subcarriers
        )
    except ConfigurationError as error:
        raise ExperimentError(str(error)) from error
    # 8x8 16-QAM on the stacked tensor-walk backend by default: the path
    # budget dominates the flush cost, giving the governor a wide dial.
    system = config.detector.system()
    noise_var = noise_variance_for_snr_db(SNR_DB)
    cell_ids = config.farm.cell_ids()
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
        config=config.to_dict(),
    )

    with build_stack(config) as stack:
        # The ungoverned baseline runs at the detector's own path count
        # (which a config may set differently from the governor's
        # ceiling); budget-less detectors have no dial to report.
        full_budget = getattr(
            stack.detector, "num_paths", config.governor.paths_max
        )
        slot_cost = stack.calibrate_slot_cost(
            scenario, cell_channels, noise_var
        )
        slot_interval = OVERLOAD * slot_cost

        runs = [
            ("ungoverned", "-", None),
            ("governed", config.governor.policy, stack.governor),
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
        f"x {SYMBOLS_PER_SLOT} symbols/slot on the {config.backend.name} "
        "backend"
    )
    result.add_note(
        f"governed run: {config.governor.policy} policy, paths in "
        f"[{config.governor.paths_min}, {config.governor.paths_max}]; "
        f"ungoverned runs fixed at {full_budget} paths"
    )
    return result
