"""fleet_2w: two supervised worker processes, unpaced.

A closed loop over the process boundary: one caller issues
``FarmCoordinator.run()`` — one 8-slot chunk dispatched to every worker,
every reply awaited, the summaries merged — and issues the next only
when that returned.  Workers generate their own frames from seeds (the
farm's design), so frame generation is inside the measured rate, and the
detections never leave the workers: the oracle here is conservation —
everything offered was detected, nothing shed or missing, no worker
restarted, and every cell saw the same frames as on a one-worker fleet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from flexbench import layers
from flexbench.inputs import detector_spec, make_blocks, workload_rng
from flexbench.measure import (
    latencies,
    median,
    peak_rss_mb,
    rates,
    set_up_repeatedly,
)
from flexbench.recorder import Recorder
from flexbench.spec import FLEET, setup_repeats
from repro.api import BackendSpec, FarmSpec, SchedulerSpec, StackConfig
from repro.control.workload import WorkloadScenario
from repro.farm import FarmCoordinator
from repro.mimo.model import noise_variance_for_snr_db
from repro.ofdm.lte import SYMBOLS_PER_SLOT

NAME = "fleet_2w"


@dataclass
class Prepared:
    config: StackConfig
    scenario: WorkloadScenario
    noise_var: float


def prepare(seed: int) -> Prepared:
    config = StackConfig(
        detector=detector_spec(FLEET),
        backend=BackendSpec("array"),
        farm=FarmSpec(streaming=True, cells=FLEET["cells"]),
        scheduler=SchedulerSpec(batch_target=SYMBOLS_PER_SLOT),
    )
    # One chunk per run() call: the chunk is the fleet's dispatch,
    # heartbeat and recovery quantum, and here also the unit of latency.
    scenario = WorkloadScenario(
        "steady",
        cells=config.farm.cell_ids(),
        slots=FLEET["slots_per_chunk"],
        subcarriers=FLEET["subcarriers"],
        utilization=1.0,
        seed=int(seed),
    )
    return Prepared(config, scenario, noise_variance_for_snr_db(FLEET["snr_db"]))


def failed_frames(report, cells_before: dict, reference: dict) -> int:
    """Frames of one ``run()`` that break conservation.

    ``reference`` is the per-cell frame count of one run on a one-worker
    fleet; ``cells_before`` the cumulative per-cell counts before this
    run (workers report running totals).
    """
    summary = report.scheduler
    failed = report.frames_offered - report.frames_detected
    failed += summary["frames_shed"] + summary["frames_missing"]
    for cell, frames in reference.items():
        seen = report.cells.get(cell, {}).get("frames", 0) - cells_before.get(
            cell, 0
        )
        failed += abs(seen - frames)
    if report.restarts:
        failed = max(failed, report.frames_offered)
    return failed


def cell_frames(report) -> dict:
    return {cell: stats["frames"] for cell, stats in report.cells.items()}


def set_up(prepared: Prepared, workers: int):
    """Spawn the fleet, hand it the workload, and run one warm chunk.

    Returns ``(coordinator, seconds, first_report, start_ms, install_ms)``.
    """
    begin = time.perf_counter()
    coordinator = FarmCoordinator(
        prepared.config,
        workers=workers,
        slots_per_chunk=FLEET["slots_per_chunk"],
    )
    try:
        coordinator.start()
        started = time.perf_counter()
        coordinator.install_workload(prepared.scenario, prepared.noise_var)
        installed = time.perf_counter()
        report = coordinator.run(slot_interval_s=0)
    except BaseException:
        coordinator.close()
        raise
    return (
        coordinator,
        time.perf_counter() - begin,
        report,
        (started - begin) * 1e3,
        (installed - started) * 1e3,
    )


def reference_counts(prepared: Prepared) -> dict:
    """Per-cell frames of one run on a one-worker fleet."""
    coordinator, _, report, *_ = set_up(prepared, workers=1)
    coordinator.close()
    return cell_frames(report)


def timed_loop(coordinator, first_report, reference, seconds, recorder=None):
    """``run()`` after ``run()`` for ``seconds``; with a recorder, odd
    iterations are recorded as ``farm.chunk`` spans.

    Returns ``(durations, reports, failed_frames, attempted_frames)``.
    """
    durations, reports = [], []
    failed = attempted = 0
    cells = cell_frames(first_report)
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if recorder is not None and len(durations) % 2 == 1:
            recorder.iteration = len(durations)
            with recorder.span("farm.chunk"):
                report = coordinator.run(slot_interval_s=0)
        else:
            report = coordinator.run(slot_interval_s=0)
        stop = time.perf_counter()
        durations.append(stop - start)
        reports.append(report)
        attempted += report.frames_offered
        failed += failed_frames(report, cells, reference)
        cells = cell_frames(report)
        if stop >= deadline:
            break
    return durations, reports, failed, attempted


def run(name: str, seed: int, seconds: float, import_s: float) -> dict:
    """The untraced pass: the end-to-end metrics of the two-worker fleet."""
    prepared = prepare(seed)
    reference = reference_counts(prepared)
    (coordinator, _, first, _, _), setup_s = set_up_repeatedly(
        lambda: set_up(prepared, FLEET["workers"]), setup_repeats(seconds)
    )
    try:
        failed = failed_frames(first, {}, reference)
        durations, reports, loop_failed, attempted = timed_loop(
            coordinator, first, reference, seconds
        )
    finally:
        coordinator.close()
    return {
        "attempted": attempted + first.frames_offered,
        "failed": failed + loop_failed,
        "samples": len(durations),
        "metrics": {
            **rates(durations, [r.frames_detected for r in reports]),
            **latencies(durations),
            "setup_s": import_s + setup_s,
            "peak_rss_mb": peak_rss_mb(children=True),
        },
    }


def run_traced(
    name: str, seed: int, seconds: float, import_s: float, trace_path
) -> dict:
    """The traced pass: a one-worker baseline, then the fleet with a
    span per chunk and per ping."""
    prepared = prepare(seed)
    recorder = Recorder(NAME)
    single, _, first, *_ = set_up(prepared, workers=1)
    try:
        reference = cell_frames(first)
        single_durations, single_reports, failed, attempted = timed_loop(
            single, first, reference, 0.2 * seconds
        )
    finally:
        single.close()
    coordinator, _, first, start_ms, install_ms = set_up(
        prepared, FLEET["workers"]
    )
    try:
        failed += failed_frames(first, {}, reference)
        durations, reports, loop_failed, loop_attempted = timed_loop(
            coordinator, first, reference, 0.6 * seconds, recorder
        )
        pings = []
        for _ in range(50):
            with recorder.span("farm.ping") as span:
                coordinator.ping()
            pings.append(span["end"] - span["start"])
    finally:
        coordinator.close()
    recorder.write_chrome(trace_path)
    failed += loop_failed
    attempted += loop_attempted + first.frames_offered

    per_worker = [
        sum(report.per_worker[index]["frames_detected"] for report in reports)
        for index in range(FLEET["workers"])
    ]
    fleet_rates = rates(durations, [r.frames_detected for r in reports])
    ledger = {
        **fleet_rates,
        "farm.start_ms": start_ms,
        "farm.install_workload_ms": install_ms,
        "farm.ping_rtt_p50_us": median(pings) * 1e6 / FLEET["workers"],
        "farm.chunks": len(reports),
        "farm.scaling_2w_over_1w": fleet_rates["vectors_per_s.sustained"]
        / rates(single_durations, [r.frames_detected for r in single_reports])[
            "vectors_per_s.sustained"
        ],
        "farm.worker_skew": max(per_worker) / min(per_worker),
        "farm.restarts": sum(len(report.restarts) for report in reports),
        # Nothing inside a worker can be wrapped from here: the chunk is
        # the only span, and all of its time is the farm's.
        "bench.trace_overhead_ratio": median(durations[1::2])
        / median(durations[0::2]),
        **layers.api_ledger(prepared.config, import_s, median(durations)),
        **latencies(durations[0::2]),
        "failed_ratio": failed / attempted,
    }
    # The kernels at the shape one worker's cell flush hands them.
    spec = prepared.config.detector
    blocks, noise_var = make_blocks(
        spec.system(),
        FLEET["snr_db"],
        FLEET["subcarriers"],
        SYMBOLS_PER_SLOT,
        4,
        workload_rng(seed, NAME),
    )
    detector = spec.build()
    ledger.update(
        layers.kernel_ledger(detector, blocks[0], noise_var, False, seconds / 48)
    )
    ledger.update(layers.transfer_ledger(detector, blocks, noise_var, False))
    return {"attempted": attempted, "failed": failed, "metrics": ledger}
