"""Fleet experiment: one StackConfig farmed across worker processes.

A systems extension in the paper's spirit: §6 runs FlexCore distributed
across machines, and the config-first API makes the distribution story
declarative — :class:`~repro.farm.FarmCoordinator` splits one
:class:`~repro.api.StackConfig` across worker processes, ships each the
*serialized* slice, and supervises the fleet.  This experiment measures
what that buys:

* **scaling** — the same seeded scenario, unpaced, at 1..N workers; the
  throughput column is directly comparable because the work partition
  is exact (every worker derives the same demand table and serves only
  its own cells);
* **recovery** — the same run with a scripted SIGKILL of one worker
  mid-scenario; the coordinator re-spawns it from its config slice,
  replays the lost chunk, and the merged telemetry records the restart.

On a single-CPU host the scaling rows still run (the coordinator is
correct regardless); they just cannot show speedup — the scaling
number to trust is flexbench's ``farm.scaling_2w_over_1w`` row, whose
record carries the CPU count.
"""

from __future__ import annotations

import os

from repro.api import (
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
)
from repro.control.workload import SCENARIOS, WorkloadScenario
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, get_profile
from repro.farm import FarmCoordinator
from repro.mimo.model import noise_variance_for_snr_db
from repro.ofdm.lte import SYMBOLS_PER_SLOT

PATHS_MAX = 32
SNR_DB = 20.0
CELLS = 4

#: Deliberately light (4x4, 32 paths, serial in-worker backend): each
#: worker is already its own process, so the fleet's parallelism comes
#: from the coordinator, not nested pools.
FLEET_STACK_CONFIG = StackConfig(
    detector=DetectorSpec("flexcore", 4, 4, 16, params={"num_paths": PATHS_MAX}),
    farm=FarmSpec(streaming=True, cells=CELLS),
    scheduler=SchedulerSpec(batch_target=SYMBOLS_PER_SLOT),
    governor=GovernorSpec(
        policy="aimd",
        paths_min=2,
        paths_max=PATHS_MAX,
        total_path_budget=CELLS * (PATHS_MAX // 2),
    ),
)


def run(
    profile=None,
    workload: str = "steady",
    workers: int = 2,
    stack_config: StackConfig = FLEET_STACK_CONFIG,
) -> ExperimentResult:
    """Worker-count scaling + kill-recovery for the farm coordinator.

    ``stack_config`` is the streaming farm partitioned across the
    workers, detector included; ``workers`` is the largest fleet
    measured (1..workers all run).  The kill-recovery row re-runs the
    largest fleet with worker 0 SIGKILLed mid-scenario.
    """
    profile = get_profile(profile)
    if workload not in SCENARIOS:
        raise ExperimentError(
            f"unknown workload {workload!r}; options: {', '.join(SCENARIOS)}"
        )
    if workers < 1:
        raise ExperimentError("workers must be >= 1")
    if not stack_config.farm.streaming:
        raise ExperimentError(
            "the fleet experiment needs a streaming farm config"
        )
    if stack_config.detector is None:
        raise ExperimentError("the fleet experiment needs config.detector set")
    if workers > stack_config.farm.cells:
        raise ExperimentError(
            f"workers={workers} exceeds the farm's {stack_config.farm.cells} "
            "cells"
        )
    subcarriers = min(profile.subcarriers, 6)
    slots = max(8, min(24, profile.packets_per_point))
    scenario = WorkloadScenario(
        scenario=workload,
        cells=stack_config.farm.cell_ids(),
        slots=slots,
        subcarriers=subcarriers,
        seed=profile.seed,
    )
    noise_var = noise_variance_for_snr_db(SNR_DB)

    result = ExperimentResult(
        experiment="fleet",
        title="Multi-process farm: worker scaling and crash recovery",
        profile=profile.name,
        columns=[
            "mode",
            "workers",
            "scenario",
            "frames_offered",
            "frames_detected",
            "hit_rate",
            "throughput_fps",
            "speedup",
            "restarts",
        ],
        config=stack_config.to_dict(),
    )

    def fleet_run(count: int, kill_script=None):
        with FarmCoordinator(
            stack_config, count, kill_script=kill_script
        ) as coordinator:
            return coordinator.run(
                scenario, noise_var, slot_interval_s=0.0
            )

    base_throughput = None
    for count in range(1, workers + 1):
        report = fleet_run(count)
        if base_throughput is None:
            base_throughput = report.throughput_fps or 1.0
        result.add_row(
            mode="scale",
            workers=count,
            scenario=workload,
            frames_offered=report.frames_offered,
            frames_detected=report.frames_detected,
            hit_rate=report.hit_rate,
            throughput_fps=report.throughput_fps,
            speedup=report.throughput_fps / base_throughput,
            restarts=len(report.restarts),
        )
        result.record_runtime(f"fleet_{count}_workers", report.as_dict())

    if workers >= 2:
        # Kill worker 0 right after the second chunk is dispatched to
        # it; the coordinator must re-spawn from the config slice,
        # replay the chunk, and finish the scenario.
        report = fleet_run(workers, kill_script={0: 1})
        if not report.restarts:
            raise ExperimentError(
                "scripted worker kill produced no recorded restart"
            )
        result.add_row(
            mode="kill-recovery",
            workers=workers,
            scenario=workload,
            frames_offered=report.frames_offered,
            frames_detected=report.frames_detected,
            hit_rate=report.hit_rate,
            throughput_fps=report.throughput_fps,
            speedup=report.throughput_fps / (base_throughput or 1.0),
            restarts=len(report.restarts),
        )
        result.record_runtime("fleet_kill_recovery", report.as_dict())

    result.add_note(
        f"{stack_config.farm.cells} cells x {subcarriers} subcarriers x "
        f"{SYMBOLS_PER_SLOT} symbols/slot, unpaced (throughput mode); "
        "workers rebuild their stack slice from the serialized "
        "StackConfig"
    )
    cpus = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity"
    ) else (os.cpu_count() or 1)
    result.add_note(
        f"host exposes {cpus} usable CPU(s); speedup needs as many "
        "cores as workers"
    )
    if workers >= 2:
        result.add_note(
            "kill-recovery row: worker 0 SIGKILLed mid-scenario, "
            "re-spawned from its config slice, lost chunk replayed "
            "(restart count is in the restarts column)"
        )
    return result
