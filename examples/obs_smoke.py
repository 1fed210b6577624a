#!/usr/bin/env python3
"""Observability smoke: a traced fleet run plus artifact validation.

Two modes, both used by the CI ``obs-smoke`` lane:

``--smoke``
    Run a 2-worker coordinated fleet with tracing enabled and a
    scripted mid-run SIGKILL of worker 0, unpaced so governor ticks
    fire every flush opportunity.  Exit non-zero unless the merged
    Chrome trace carries one lane per worker, at least one
    ``governor_tick`` span and the ``worker_restart`` instant, the
    Prometheus dump carries the deadline/latency series, and the three
    accounting planes agree across the replayed chunk: the dumped
    ``repro_frames_detected_total{cell=...}`` series sum to the fleet
    summary's ``frames_detected`` and to the per-cell stats.  The trace
    and metrics files land in ``--out`` and are re-validated from disk
    through the same checks as ``--validate``.

``--validate TRACE METRICS``
    Validate artifacts some other run produced (CI points this at the
    runner's ``--trace`` / ``--metrics-dump`` output): the trace must
    be Chrome trace-event JSON (every event carrying ``name``/``ph``/
    ``ts``/``pid``/``tid``, timestamps monotone within each lane) and
    the metrics dump must expose the ``repro_deadline_hit_rate`` gauge
    and the ``repro_flush_latency_seconds`` histogram series (labelled
    per cell or not).
"""

import argparse
import json
import re
import sys
from pathlib import Path

from repro.api import (
    BackendSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
    TracingSpec,
)
from repro.control.workload import WorkloadScenario
from repro.farm import FarmCoordinator
from repro.mimo.model import noise_variance_for_snr_db
from repro.obs import (
    EVENT_WORKER_RESTART,
    MAIN_PID,
    SPAN_GOVERNOR_TICK,
    WORKER_PID_BASE,
)


def validate_trace(path: Path) -> "list[str]":
    """Chrome trace-event JSON checks; returns failure messages."""
    failures = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        return [f"{path}: unreadable trace JSON ({error})"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"{path}: no traceEvents array"]
    lanes = {}
    for event in events:
        missing = {"name", "ph", "pid", "tid"} - set(event)
        if event.get("ph") != "M":
            missing |= {"ts"} - set(event)
        if missing:
            failures.append(f"event missing keys {sorted(missing)}: {event}")
            continue
        if event["ph"] == "M":
            continue
        lanes.setdefault((event["pid"], event["tid"]), []).append(
            event["ts"]
        )
    for lane, stamps in lanes.items():
        if stamps != sorted(stamps):
            failures.append(f"lane {lane}: timestamps not monotone")
    if not lanes:
        failures.append("no timestamped events in any lane")
    return failures


def validate_metrics(path: Path) -> "list[str]":
    """Prometheus text exposition checks; returns failure messages."""
    try:
        text = path.read_text()
    except OSError as error:
        return [f"{path}: unreadable metrics dump ({error})"]
    failures = []
    for required in (
        r"^# TYPE repro_deadline_hit_rate gauge$",
        r"^repro_deadline_hit_rate [0-9.e+-]+$",
        r"^# TYPE repro_flush_latency_seconds histogram$",
        r'^repro_flush_latency_seconds_bucket\{(.*,)?le="\+Inf"\} \d+$',
        r"^repro_flush_latency_seconds_count(\{.*\})? \d+$",
    ):
        if not re.search(required, text, re.MULTILINE):
            failures.append(f"{path}: no line matching {required!r}")
    return failures


def exposed_total(path: Path, name: str) -> float:
    """Sum of every ``name{...} value`` sample line in a metrics dump."""
    sample = re.compile(rf"^{name}(\{{.*\}})? (\S+)$", re.MULTILINE)
    return sum(float(match[2]) for match in sample.finditer(path.read_text()))


def run_smoke(args) -> int:
    config = StackConfig(
        detector=DetectorSpec(
            "flexcore", 4, 4, 16, params={"num_paths": 16}
        ),
        backend=BackendSpec("serial"),
        farm=FarmSpec(streaming=True, cells=4),
        scheduler=SchedulerSpec(),
        governor=GovernorSpec(policy="aimd", paths_min=2, paths_max=16),
        tracing=TracingSpec(enabled=True),
    )
    scenario = WorkloadScenario(
        scenario="steady",
        cells=config.farm.cell_ids(),
        slots=12,
        subcarriers=4,
        seed=args.seed,
    )
    with FarmCoordinator(
        config, 2, slots_per_chunk=2, kill_script={0: 1}
    ) as coordinator:
        print(
            "2 traced workers, scripted SIGKILL of worker 0 after "
            "chunk 1; unpaced slots so the governor ticks every flush"
        )
        report = coordinator.run(
            scenario,
            noise_variance_for_snr_db(20.0),
            slot_interval_s=0.0,
        )
        obs = coordinator.obs

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    metrics_path = out / "metrics.prom"
    obs.export_trace(trace_path)
    obs.dump_metrics(metrics_path)

    events = obs.tracer.events
    pids = {event["pid"] for event in events}
    ticks = sum(1 for e in events if e["name"] == SPAN_GOVERNOR_TICK)
    restart_instants = [
        e for e in events if e["name"] == EVENT_WORKER_RESTART
    ]
    print(
        f"\nfleet: {report.frames_detected}/{report.frames_offered} "
        f"frames detected, {len(events)} trace events across "
        f"{len(pids)} lanes, {ticks} governor ticks, "
        f"{len(restart_instants)} restart instants"
    )

    failures = []
    expected_lanes = {MAIN_PID, WORKER_PID_BASE, WORKER_PID_BASE + 1}
    if pids != expected_lanes:
        failures.append(
            f"merged timeline lanes {sorted(pids)} != "
            f"{sorted(expected_lanes)} (main + one per worker)"
        )
    if ticks < 1:
        failures.append("no governor_tick span in the merged trace")
    if not restart_instants:
        failures.append("no worker_restart instant in the merged trace")
    elif restart_instants[0]["pid"] != WORKER_PID_BASE:
        failures.append(
            "worker_restart instant not on the killed worker's lane"
        )
    if not report.restarts:
        failures.append("no restart recorded in the fleet report")
    failures += validate_trace(trace_path)
    failures += validate_metrics(metrics_path)
    planes = {
        "dumped repro_frames_detected_total": exposed_total(
            metrics_path, "repro_frames_detected_total"
        ),
        "report.frames_detected": report.frames_detected,
        "sum of report.cells frames": sum(
            cell["frames"] for cell in report.cells.values()
        ),
    }
    if len(set(planes.values())) != 1:
        failures.append(f"accounting planes disagree: {planes}")

    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"obs smoke OK: {trace_path} and {metrics_path} validated "
        "(per-worker lanes, governor tick, restart instant, "
        f"{report.frames_detected} frames in every accounting plane)"
    )
    return 0


def run_validate(trace: str, metrics: str) -> int:
    failures = validate_trace(Path(trace)) + validate_metrics(
        Path(metrics)
    )
    if failures:
        for failure in failures:
            print(f"VALIDATE FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"obs artifacts OK: {trace}, {metrics}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the traced 2-worker kill-recovery fleet and validate "
        "its merged trace + metrics artifacts",
    )
    parser.add_argument(
        "--validate",
        nargs=2,
        metavar=("TRACE", "METRICS"),
        help="validate an existing Chrome trace JSON and Prometheus "
        "dump produced elsewhere (e.g. the runner's --trace / "
        "--metrics-dump)",
    )
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args()
    if args.validate:
        return run_validate(*args.validate)
    if args.smoke:
        return run_smoke(args)
    parser.error("choose --smoke or --validate TRACE METRICS")


if __name__ == "__main__":
    raise SystemExit(main())
