"""``python -m flexbench``: one workload run, or the whole suite.

Two ways in:

* ``--workload W --seed N --seconds S --trace 0|1`` — one run of one
  workload in this process (what the benchmark driver and the suite's
  child processes use).  The last line of standard output is one JSON
  object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
  end-to-end metrics with ``--trace 0``, the per-layer ledger with
  ``--trace 1``).
* no ``--trace`` — the suite: every workload (or ``--workload W``) in a
  child process of its own, untraced then traced, printed by name with
  units, checked for selectivity and, with ``--repeat N``, for
  repeatability.  See ``flexbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread, fixed before numpy is first imported: the workloads
# are sized for one load-generating core, and the fleet needs the other.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path("results") / "flexbench"


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m flexbench")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--save-baseline", action="store_true")
    return parser.parse_args(argv)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload in this process."""
    started = time.perf_counter()
    import numpy  # noqa: F401  (timed; the same list as measure.IMPORTS)

    import repro.api  # noqa: F401
    import repro.farm  # noqa: F401

    import_s = time.perf_counter() - started

    from flexbench import closed, fleet, measure, paced
    from flexbench.spec import CLOSED_LOOPS, PER_LAYER, WORKLOADS, setup_repeats

    if workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload!r}; options: {', '.join(WORKLOADS)}"
        )
    module = (
        closed
        if workload in CLOSED_LOOPS
        else {"paced_farm": paced, "fleet_2w": fleet}[workload]
    )
    if trace:
        outcome = module.run_traced(
            workload,
            seed,
            seconds,
            import_s,
            TRACE_DIR / f"trace-{workload}.json",
        )
        # A layer the workload does not pass through reads 0.
        outcome["metrics"] = {
            name: outcome["metrics"].get(name, 0) for name in PER_LAYER
        }
    else:
        # setup_s is import + set-up, each the median of as many samples.
        again = measure.import_seconds(ROOT / "src", setup_repeats(seconds) - 1)
        outcome = module.run(
            workload, seed, seconds, measure.median([import_s] + again)
        )
    return outcome


def result_line(outcome: dict, trace: bool) -> str:
    from flexbench.spec import END_TO_END, PER_LAYER

    table = PER_LAYER if trace else END_TO_END
    return json.dumps(
        {
            "correct": outcome["failed"] == 0,
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": {
                name: {
                    "value": outcome["metrics"][name],
                    "unit": table[name]["unit"],
                }
                for name in table
            },
        }
    )


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"flexbench: no program to measure: {ROOT / 'src' / 'repro'} "
            "is missing (run from a checkout of the repository)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace is None:
        from flexbench import suite

        return suite.main(args)
    if args.workload is None:
        raise SystemExit("--trace needs --workload")
    from flexbench.spec import RUN_S

    seconds = args.seconds if args.seconds is not None else RUN_S
    outcome = run_one(args.workload, args.seed, seconds, bool(args.trace))
    if not args.trace:
        # What an untraced run also measured but the contract's result
        # line has no room for (the suite prints it as report-only).
        from flexbench.spec import END_TO_END

        reported = {
            name: value
            for name, value in outcome["metrics"].items()
            if name not in END_TO_END
        }
        reported["samples"] = outcome["samples"]
        print("flexbench-extras " + json.dumps(reported))
    print(result_line(outcome, bool(args.trace)))
    return 0 if outcome["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
