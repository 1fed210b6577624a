"""The suite: every workload in a child of its own, printed and gated.

``python -m flexbench`` runs each workload untraced (end-to-end metrics)
and then traced (the per-layer ledger), one child process at a time,
and prints every metric by name with its unit.  It fails — exits
non-zero — when an output differs from its oracle, when the workloads
stop separating the layers (the selectivity table), when the ledger
leaves too much time unattributed or tracing costs too much, and, with
``--repeat N``, when two sets of the same commit disagree by more than a
metric's bound.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from flexbench import fingerprint
from flexbench.measure import median
from flexbench.spec import END_TO_END, PER_LAYER, ROOT, RUN_S, WORKLOADS

BASELINE = Path(__file__).resolve().parent / "baseline.json"
RESULTS = Path("results") / "flexbench"
EXTRAS = "flexbench-extras "

#: The workloads must keep separating the layers: (metric, workload,
#: comparison, limit).  Shares are percent of block time; the rest ratios.
SELECTIVITY = (
    ("share.tree_search", "cold_mobility", ">=", 30.0),
    ("share.tree_search", "warm_walk", "<=", 2.0),
    ("detector.prepare_share", "warm_walk", "<=", 0.05),
    ("detector.prepare_share", "soft_llr", "<=", 0.05),
    ("bench.unattributed_share", "warm_walk", "<=", 0.10),
    ("bench.unattributed_share", "cold_mobility", "<=", 0.10),
)
#: Checked on full-length runs only: a one-second smoke run has too few
#: blocks for a ratio of medians to mean anything.
TRACE_OVERHEAD = (
    ("bench.trace_overhead_ratio", "warm_walk", "<=", 1.05),
    ("bench.trace_overhead_ratio", "cold_mobility", "<=", 1.05),
)
#: Detection quality repeats exactly per seed, so its bound is absolute.
QUALITY_BOUNDS = {"ver": 0.002, "llr_ber": 0.0005}


def start_child(workload: str, seed: int, seconds: float, trace: int):
    """One workload run in a fresh process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "flexbench",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish_child(child, label: str) -> dict:
    """Wait for a child and parse its result line."""
    try:
        stdout, stderr = child.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit(f"{label} did not finish within 180 s") from None
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"{label} printed no result (exit {child.returncode}):\n"
            f"{stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["extras"] = {}
    for line in lines[:-1]:
        if line.startswith(EXTRAS):
            record["extras"] = json.loads(line[len(EXTRAS) :])
    return record


def run_set(workloads, seed: int, seconds: float, overlap: bool) -> dict:
    """Untraced then traced, workload after workload, one child at a
    time — unless ``overlap`` (the smoke lane, where no timing is kept)
    lets a workload's two passes share the machine."""
    records = {}
    for workload in workloads:
        print(f"  running {workload} ...", flush=True)
        untraced = start_child(workload, seed, seconds, 0)
        if not overlap:
            untraced = finish_child(untraced, f"{workload} (untraced)")
        traced = finish_child(
            start_child(workload, seed, seconds, 1), f"{workload} (traced)"
        )
        if overlap:
            untraced = finish_child(untraced, f"{workload} (untraced)")
        records[workload] = {"untraced": untraced, "traced": traced}
    return records


def value(record: dict, name: str) -> float:
    return record["metrics"][name]["value"]


def failed_ratio(record: dict) -> float:
    return record["failed"] / record["attempted"]


def print_set(records: dict) -> None:
    for workload, pair in records.items():
        untraced, traced = pair["untraced"], pair["traced"]
        print(f"\n== {workload} ==")
        print("  end to end (untraced)")
        extras = untraced["extras"]
        for name, entry in END_TO_END.items():
            print(f"    {name:<28}{value(untraced, name):>16.6g} {entry['unit']}")
        for name in ("latency_p50_ms", "latency_p90_ms", "vectors_per_s.sustained"):
            print(
                f"    {name:<28}{extras[name]:>16.6g} {PER_LAYER[name]['unit']}"
                f"  (report only; n={extras['samples']})"
            )
        print(
            f"    {'failed_ratio':<28}{failed_ratio(untraced):>16.6g} ratio"
            f"  ({untraced['failed']} of {untraced['attempted']})"
        )
        print("  per layer (traced; 0 = this workload does not pass through it)")
        for name, entry in PER_LAYER.items():
            print(f"    {name:<42}{value(traced, name):>16.6g} {entry['unit']}")


def print_selectivity(records: dict) -> None:
    shares = [name for name in PER_LAYER if name.startswith("share.")]
    print("\n== selectivity: share of block time per layer (%) ==")
    print(f"  {'layer':<22}" + "".join(f"{w:>15}" for w in records))
    for name in shares:
        row = "".join(
            f"{value(pair['traced'], name):>15.2f}" for pair in records.values()
        )
        print(f"  {name:<22}{row}")


def check_limits(records: dict, limits) -> "list[str]":
    problems = []
    for name, workload, relation, limit in limits:
        if workload not in records:
            continue
        seen = value(records[workload]["traced"], name)
        holds = seen >= limit if relation == ">=" else seen <= limit
        if not holds:
            problems.append(
                f"{name} on {workload} is {seen:.4g}, must be {relation} {limit}"
            )
    return problems


def check_correct(records: dict) -> "list[str]":
    problems = []
    for workload, pair in records.items():
        for kind, record in pair.items():
            if record["failed"] or not record["correct"]:
                problems.append(
                    f"{workload} ({kind}): {record['failed']} of "
                    f"{record['attempted']} operations failed their oracle"
                )
    return problems


def spread_table(sets: "list[dict]") -> "list[str]":
    """Relative spread of every end-to-end metric across the sets,
    against its bound."""
    problems = []
    print("\n== repeatability: (max - min) / median across sets, vs bound ==")
    for workload in sets[0]:
        for name, entry in END_TO_END.items():
            values = [value(s[workload]["untraced"], name) for s in sets]
            spread = (max(values) - min(values)) / median(values)
            verdict = "ok" if spread <= entry["bound"] else "EXCEEDS"
            print(
                f"  {workload:<15}{name:<18}"
                + "".join(f"{v:>14.6g}" for v in values)
                + f"  spread {spread:6.3f}  bound {entry['bound']:.2f}  {verdict}"
            )
            if spread > entry["bound"]:
                problems.append(
                    f"{name} on {workload} spread {spread:.3f} exceeds "
                    f"its bound {entry['bound']}"
                )
    return problems


def compare_baseline(records: dict, seed: int, prints: dict) -> "list[str]":
    """Label the run against the stored record, if it is comparable."""
    if not BASELINE.exists():
        return []
    stored = json.loads(BASELINE.read_text())
    differs = fingerprint.differences(prints, stored["fingerprint"])
    if differs:
        print(
            "\n== baseline: NOT comparable (fingerprint differs on "
            + ", ".join(differs)
            + ") =="
        )
        return []
    print("\n== baseline: comparable fingerprint; change vs stored median ==")
    problems = []
    for workload, pair in records.items():
        base = stored["workloads"].get(workload)
        if base is None:
            continue
        for name, entry in END_TO_END.items():
            now, then = value(pair["untraced"], name), base["end_to_end"][name]
            print(
                f"  {workload:<15}{name:<18}{then:>14.6g} -> {now:>14.6g}"
                f"  ({100.0 * (now - then) / then:+.1f} %, bound "
                f"{100.0 * entry['bound']:.0f} %)"
            )
        if stored["seed"] == seed:
            for name, bound in QUALITY_BOUNDS.items():
                now, then = value(pair["traced"], name), base["quality"][name]
                if now > then + bound:
                    problems.append(
                        f"{name} on {workload} rose from {then:.5f} to "
                        f"{now:.5f} (bound +{bound} absolute)"
                    )
    return problems


def baseline_payload(sets: "list[dict]", seed: int, prints: dict) -> dict:
    workloads = {}
    for workload in sets[0]:
        workloads[workload] = {
            "end_to_end": {
                name: median(value(s[workload]["untraced"], name) for s in sets)
                for name in END_TO_END
            },
            "quality": {
                name: value(sets[0][workload]["traced"], name)
                for name in QUALITY_BOUNDS
            },
            "per_layer": {
                name: value(sets[-1][workload]["traced"], name)
                for name in PER_LAYER
            },
        }
    return {
        "claim": None,
        "seed": seed,
        "run_seconds": RUN_S,
        "sets": len(sets),
        "fingerprint": prints,
        "workloads": workloads,
    }


def main(args) -> int:
    workloads = WORKLOADS if args.workload is None else (args.workload,)
    unknown = [name for name in workloads if name not in WORKLOADS]
    if unknown:
        raise SystemExit(
            f"unknown workload {unknown[0]!r}; options: {', '.join(WORKLOADS)}"
        )
    seconds = args.seconds if args.seconds is not None else RUN_S
    if args.smoke:
        seconds = 1
    prints = fingerprint.collect(ROOT)
    print("== fingerprint ==")
    for key, item in prints.items():
        print(f"  {key:<18}{item}")
    sets = []
    for index in range(max(1, args.repeat)):
        print(f"\nset {index + 1} of {max(1, args.repeat)}", flush=True)
        sets.append(run_set(workloads, args.seed, seconds, overlap=args.smoke))
    prints["loadavg_1m_end"] = os.getloadavg()[0]
    records = sets[-1]
    print_set(records)
    print_selectivity(records)
    problems = []
    for records_of_set in sets:
        problems += check_correct(records_of_set)
        problems += check_limits(records_of_set, SELECTIVITY)
        if not args.smoke:
            problems += check_limits(records_of_set, TRACE_OVERHEAD)
    if len(sets) > 1:
        problems += spread_table(sets)
    if not args.smoke:
        problems += compare_baseline(records, args.seed, prints)
    payload = baseline_payload(sets, args.seed, prints)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(payload, indent=2))
    if args.save_baseline and not problems and not args.smoke:
        BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nstored {BASELINE}")
    print(f"\nloadavg 1m: {prints['loadavg_1m_start']:.2f} at start, "
          f"{prints['loadavg_1m_end']:.2f} at end; traces in {RESULTS}/")
    if problems:
        print("\nFAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nall checks passed; no gain is claimed (claim: null)")
    return 0
