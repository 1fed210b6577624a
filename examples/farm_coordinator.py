#!/usr/bin/env python3
"""A multi-process AP farm: one StackConfig, N supervised workers.

``examples/adaptive_farm.py`` governed N cells inside one process; this
demo takes the same declarative :class:`~repro.api.StackConfig` and
farms it across worker *processes*.  The coordinator
(:class:`~repro.farm.FarmCoordinator`) never ships live objects — each
worker receives its serialized config slice and rebuilds its share of
the farm with :func:`~repro.api.build_stack`, which is exactly what
makes the config the recovery plan:

* cells are partitioned contiguously (``StackConfig.split_cells``), and
  every worker derives the same seeded demand table but serves only its
  own columns, so the work split is exact;
* each chunk reply doubles as a heartbeat; a worker that is SIGKILLed
  (``--kill``) or hangs is re-spawned from its slice and the lost chunk
  is replayed from the same seeds;
* one global path budget (``GovernorSpec.total_path_budget``) is
  water-filled across every worker's governor after each chunk.

Run:  python examples/farm_coordinator.py [--workers 2] [--cells 4]
          [--slots 12] [--scenario steady] [--kill WORKER:CHUNK]
          [--overload 3.0] [--seed 2017]

``--smoke`` runs a short fixed-seed pass with a scripted mid-run kill
of worker 0 and exits non-zero unless the restart is recorded in the
merged telemetry, every offered frame is accounted for, and the
surviving worker's deadline hit-rate stays >= 99% — the CI farm-smoke
lane.
"""

import argparse
import sys

from repro.api import (
    BackendSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
)
from repro.control.workload import SCENARIOS, WorkloadScenario
from repro.farm import FarmCoordinator
from repro.mimo.model import noise_variance_for_snr_db
from repro.ofdm.lte import SYMBOLS_PER_SLOT


def build_config(args) -> StackConfig:
    """The whole fleet as one declarative (and shippable) stack config."""
    return StackConfig(
        detector=DetectorSpec(
            "flexcore",
            args.antennas,
            args.antennas,
            16,
            params={"num_paths": args.paths_max},
        ),
        backend=BackendSpec("serial"),  # workers are the parallelism
        farm=FarmSpec(streaming=True, cells=args.cells),
        scheduler=SchedulerSpec(batch_target=SYMBOLS_PER_SLOT),
        governor=GovernorSpec(
            policy="aimd",
            paths_min=2,
            paths_max=args.paths_max,
            total_path_budget=args.cells * (args.paths_max // 2),
        ),
    )


def parse_kill(text: str) -> "dict[int, int]":
    try:
        worker, chunk = map(int, text.split(":", 1))
    except ValueError:
        raise SystemExit(f"--kill wants WORKER:CHUNK, got {text!r}")
    return {worker: chunk}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cells", type=int, default=4)
    parser.add_argument("--slots", type=int, default=12)
    parser.add_argument("--subcarriers", type=int, default=6)
    parser.add_argument("--antennas", type=int, default=4)
    parser.add_argument("--paths-max", type=int, default=32)
    parser.add_argument("--scenario", choices=SCENARIOS, default="steady")
    parser.add_argument(
        "--kill",
        default=None,
        metavar="WORKER:CHUNK",
        help="SIGKILL that worker right after that chunk is dispatched "
        "(the supervisor must recover and replay)",
    )
    parser.add_argument(
        "--overload",
        type=float,
        default=3.0,
        help="slot interval = overload x the slowest worker's calibrated "
        "slot cost (> 1 leaves deadline headroom; 0 runs unpaced)",
    )
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fixed-size run with a scripted kill of worker 0; exit 1 "
        "unless the restart is recorded, all frames are accounted for "
        "and the surviving worker's hit-rate is >= 99%%",
    )
    args = parser.parse_args()
    kill_script = parse_kill(args.kill) if args.kill else None
    if args.smoke:
        args.workers, args.cells, args.slots = 2, 4, 12
        args.subcarriers, args.antennas = 4, 4
        args.scenario = "steady"
        kill_script = {0: 1}

    config = build_config(args)
    scenario = WorkloadScenario(
        scenario=args.scenario,
        cells=config.farm.cell_ids(),
        slots=args.slots,
        subcarriers=args.subcarriers,
        seed=args.seed,
    )
    noise_var = noise_variance_for_snr_db(20.0)

    with FarmCoordinator(
        config, args.workers, slots_per_chunk=2, kill_script=kill_script
    ) as coordinator:
        print(
            f"{args.workers} workers x "
            f"{[len(s.farm.cell_ids()) for s in coordinator._slices]} "
            f"cells, {args.scenario} scenario, global path budget "
            f"{config.governor.total_path_budget}"
        )
        interval = (
            0.0
            if args.overload == 0
            else None  # calibrate inside run()
        )
        report = coordinator.run(
            scenario,
            noise_var,
            slot_interval_s=interval,
            overload=args.overload,
        )

    print(
        f"\nfleet: {report.frames_detected}/{report.frames_offered} "
        f"frames detected, hit-rate {report.hit_rate:.1%}, "
        f"{report.scheduler['summaries_merged']} chunk summaries merged, "
        f"{report.scheduler['frames_missing']} frames missing, "
        f"throughput {report.throughput_fps:,.0f} frames/s"
    )
    for index, summary in enumerate(report.per_worker):
        print(
            f"  worker {index}: {summary['frames_detected']:>5d} detected, "
            f"hit-rate {summary['deadline_hit_rate']:>6.1%}, "
            f"{summary['flushes']:>3d} flushes"
        )
    if report.budgets:
        print(f"  global budget awards: {report.budgets}")
    if report.restarts:
        for restart in report.restarts:
            print(
                f"  recovery: worker {restart.worker} {restart.reason} "
                f"during {restart.phase} -> re-spawned from its config "
                "slice, chunk replayed"
            )
    else:
        print("  no worker restarts")

    if args.smoke:
        survivor = report.per_worker[1]
        failures = []
        if not report.restarts:
            failures.append("no restart recorded in merged telemetry")
        if report.scheduler["frames_missing"] != 0:
            failures.append(
                f"{report.scheduler['frames_missing']} frames missing"
            )
        shed = report.scheduler["frames_shed"]
        if report.frames_detected + shed != report.frames_offered:
            failures.append(
                f"detected {report.frames_detected} + shed {shed} != "
                f"offered {report.frames_offered}"
            )
        if survivor["deadline_hit_rate"] < 0.99:
            failures.append(
                f"surviving worker hit-rate "
                f"{survivor['deadline_hit_rate']:.1%} < 99%"
            )
        if failures:
            print(f"SMOKE FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
        print(
            f"SMOKE OK: worker 0 killed and recovered "
            f"({len(report.restarts)} restart(s)); surviving worker "
            f"hit-rate {survivor['deadline_hit_rate']:.1%}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
