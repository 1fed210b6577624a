#!/usr/bin/env python3
"""A governed AP farm: the control plane adapting path budgets to load.

``examples/ap_farm.py`` showed N cells streaming slots through one
backend and *measuring* the real-time contract; this demo closes the
loop.  A :class:`~repro.control.ComputeGovernor` watches every flush's
deadline telemetry and turns FlexCore's path count — the paper's
accuracy/compute dial (§3.3) — per cell, per control tick:

* under overload it backs budgets off (AIMD) or sizes them from channel
  conditions (the SNR-aware a-FlexCore policy), keeping slots on time;
* when even the floor budget cannot make the deadline it sheds load
  explicitly rather than miss every slot silently;
* the seeded workload generator (steady / poisson / bursty / diurnal /
  flash-crowd) paces diverse traffic shapes so the adaptation is
  actually exercised.

The slot interval is deliberately calibrated into overload: ``--overload
0.6`` gives every slot only 60% of what the *full-budget* work costs, so
the ungoverned baseline cannot keep up — and the governed farm must
trade paths for punctuality.

Run:  python examples/adaptive_farm.py [--cells 2] [--slots 10]
          [--scenario bursty] [--policy aimd|snr|static]
          [--backend array|serial] [--seed 2017]

``--smoke`` runs a short fixed-seed burst-scenario pass — the CI
control-plane smoke lane — and gates on what the governor exists to
show, in counts: it cut at least one cell's path budget below the
detector's, nothing was shed outside admission control (and every
offered frame is accounted for), and the governed run put at least as
many frames on time as the ungoverned run of the same seeded traffic
(in one of two attempts: that count is read off a wall clock).  The hit
rates are printed, not gated: a slot here costs about a millisecond,
where event-loop jitter is a large share of a deadline.
"""

import argparse
import sys

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
from repro.mimo.model import noise_variance_for_snr_db
from repro.ofdm.lte import SYMBOLS_PER_SLOT


def build_config(args) -> StackConfig:
    """The whole governed farm as one declarative stack config."""
    return StackConfig(
        detector=DetectorSpec(
            "flexcore",
            args.antennas,
            args.antennas,
            16,
            params={"num_paths": args.paths_max},
        ),
        backend=BackendSpec(args.backend),
        farm=FarmSpec(streaming=True, cells=args.cells),
        scheduler=SchedulerSpec(batch_target=SYMBOLS_PER_SLOT),
        governor=GovernorSpec(
            policy=args.policy,
            paths_min=args.paths_min,
            paths_max=args.paths_max,
            peak_frames_hint=args.subcarriers * SYMBOLS_PER_SLOT,
            target_error_rate=args.target_error,
        ),
    )


def describe(label, outcome, telemetry):
    print(
        f"{label:11s} {telemetry.frames_detected:>6d} detected, "
        f"{outcome.frames_shed:>4d} shed, hit-rate "
        f"{telemetry.deadline_hit_rate:>6.1%}, {telemetry.flushes:>3d} "
        f"flushes, max latency {telemetry.max_latency_s * 1e3:6.1f} ms"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=2)
    parser.add_argument("--slots", type=int, default=10)
    parser.add_argument("--subcarriers", type=int, default=8)
    parser.add_argument("--antennas", type=int, default=8)
    parser.add_argument("--scenario", choices=SCENARIOS, default="bursty")
    parser.add_argument(
        "--policy", choices=POLICY_NAMES, default="aimd"
    )
    parser.add_argument("--paths-min", type=int, default=2)
    parser.add_argument("--paths-max", type=int, default=128)
    parser.add_argument(
        "--target-error",
        type=float,
        default=0.05,
        help="snr policy: modelled vector-error-rate target",
    )
    parser.add_argument("--backend", default="array")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument(
        "--overload",
        type=float,
        default=0.6,
        help="slot interval = overload x full-budget warm slot cost "
        "(< 1 starves the ungoverned farm)",
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the ungoverned baseline run",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short fixed-size burst run; exit 1 unless the governor cut "
        "a budget, shed only by admission control and put no fewer frames "
        "on time than the ungoverned baseline",
    )
    args = parser.parse_args()
    if args.smoke:
        args.cells, args.slots, args.subcarriers = 2, 8, 6
        args.scenario, args.policy, args.no_compare = "bursty", "aimd", False
    rng = np.random.default_rng(args.seed)

    config = build_config(args)
    system = config.detector.system()
    noise_var = noise_variance_for_snr_db(20.0)
    cell_ids = config.farm.cell_ids()
    cell_channels = {
        cell_id: rayleigh_channels(
            args.subcarriers, args.antennas, args.antennas, rng
        )
        for cell_id in cell_ids
    }
    scenario = WorkloadScenario(
        scenario=args.scenario,
        cells=cell_ids,
        slots=args.slots,
        subcarriers=args.subcarriers,
        seed=args.seed,
    )

    with build_stack(config) as stack:
        slot_cost = stack.calibrate_slot_cost(
            scenario, cell_channels, noise_var
        )
        slot_interval = args.overload * slot_cost
        print(
            f"{args.cells} cells x {args.subcarriers} subcarriers x "
            f"{SYMBOLS_PER_SLOT} symbols/slot, {args.scenario} scenario on "
            f"the {args.backend} backend"
        )
        print(
            f"calibration: full-budget ({args.paths_max} paths) slot costs "
            f"{slot_cost * 1e3:.1f} ms -> slot interval/budget "
            f"{slot_interval * 1e3:.1f} ms ({args.overload:g}x = deliberate "
            "overload)\n"
        )

        governor = stack.governor
        # On-time frames are read off a wall clock: the smoke lets one
        # stall of a shared box hit the governed run, not two.
        for _ in range(2 if args.smoke else 1):
            if not args.no_compare:
                outcome, telemetry = stack.run_streaming(
                    scenario,
                    cell_channels,
                    noise_var,
                    slot_interval_s=slot_interval,
                    governor=None,
                )
                describe("ungoverned", outcome, telemetry)
                baseline = outcome.frames_shed, telemetry.frames_on_time
            outcome, telemetry = stack.run_streaming(
                scenario,
                cell_channels,
                noise_var,
                slot_interval_s=slot_interval,
            )
            describe("governed", outcome, telemetry)
            if args.no_compare or telemetry.frames_on_time >= baseline[1]:
                break

        print(f"\npolicy {args.policy}: paths in "
              f"[{args.paths_min}, {args.paths_max}]")
        cell_stats = stack.farm.stats()
        for cell_id in cell_ids:
            trajectory = governor.telemetry.budget_trajectory(cell_id)
            if len(trajectory) > 12:
                shown = ", ".join(map(str, trajectory[:12])) + ", ..."
            else:
                shown = ", ".join(map(str, trajectory))
            print(
                f"  {cell_id}: budget trajectory [{shown}] "
                f"(shed {cell_stats[cell_id]['frames_shed']} frames)"
            )
        summary = governor.as_dict()
        print(
            f"governor: {summary['ticks']} ticks, "
            f"{summary['budget_increases']} increases, "
            f"{summary['budget_decreases']} decreases, "
            f"{summary['sheds_started']} shed episodes"
        )
        print(
            "the governed farm spends paths only where the deadline allows; "
            "the ungoverned farm burns its full budget missing slots"
        )

    if args.smoke:
        shed, on_time = outcome.frames_shed, telemetry.frames_on_time
        failures = []
        # AIMD slow-starts at the floor, so on a healthy run the cut is
        # the clamp itself, not a back-off event.
        lowest = min(
            min(governor.telemetry.budget_trajectory(cell_id))
            for cell_id in cell_ids
        )
        if lowest >= args.paths_max:
            failures.append("the governor never cut a budget")
        if baseline[0] or (shed and not summary["sheds_started"]):
            failures.append(
                f"frames shed outside admission control ({baseline[0]} "
                f"ungoverned, {shed} governed in {summary['sheds_started']} "
                "shed episodes)"
            )
        if telemetry.frames_missing:
            failures.append(f"{telemetry.frames_missing} frames unaccounted for")
        if on_time < baseline[1]:
            failures.append(
                f"governed on-time frames {on_time} < ungoverned {baseline[1]}"
            )
        if failures:
            print(f"SMOKE FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
        print(
            f"SMOKE OK: budgets cut to {lowest} of {args.paths_max} paths, "
            f"{shed} frames shed by admission control, {on_time} governed frames on "
            f"time vs {baseline[1]} ungoverned (hit-rate "
            f"{telemetry.deadline_hit_rate:.1%}, not gated)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
