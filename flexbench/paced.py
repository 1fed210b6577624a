"""paced_farm: an open loop through the streaming scheduler.

Two cells' slot bursts (8 subcarriers x 7 symbols each) arrive on a
fixed schedule whatever the backlog.  Every arrival is built and stamped
with the instant it is *due* before the phase's clock starts, and its
latency runs from that instant to ``FrameDetection.flush.completed_s`` —
so a stall is charged to everything queued behind it.  The rates are the
constants of ``flexbench.spec.PACED``; nothing here derives a rate from
a timing.

The scheduler detects inside its own event-loop task, so the driver
cannot submit while a flush runs; how late that made it is reported as
``scheduler.generator_late_p90_ms``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field

from flexbench import closed, layers
from flexbench.inputs import (
    Block,
    Expected,
    detector_spec,
    error_rates,
    make_blocks,
    mismatched_vectors,
    oracle,
    workload_rng,
)
from flexbench.measure import (
    latencies,
    median,
    median_us,
    peak_rss_mb,
    percentile,
    rates,
    set_up_repeatedly,
)
from flexbench.recorder import Recorder, self_times
from flexbench.spec import PACED, setup_repeats
from repro.api import (
    BackendSpec,
    FarmSpec,
    SchedulerSpec,
    StackConfig,
    build_stack,
    presets,
)
from repro.errors import LoadShedError
from repro.ofdm.lte import SYMBOLS_PER_SLOT
from repro.runtime.scheduler import FlushRecord, FrameArrival, MicroBatcher

NAME = "paced_farm"


@dataclass
class Prepared:
    config: StackConfig
    pool: "list[Block]"  # one block per slot: both cells' subcarriers
    answers: "list[Expected]"
    noise_var: float
    cells: "tuple[str, ...]"
    quality: dict

    def cell_of(self, subcarrier: int) -> str:
        return self.cells[subcarrier // PACED["subcarriers"]]


@dataclass
class Phase:
    """What one phase of arrivals did."""

    interval_s: float
    slots: int
    attempted: int = 0  # vectors offered
    failed: int = 0  # raised, went missing, or differ from the oracle
    shed: int = 0  # refused by the governor (phase (c) only)
    detected: int = 0
    #: Per slot burst: due time -> its last answer is back / its last
    #: flush started.  (Per arrival both are bimodal — the cell served
    #: first vs second — and a median between two modes does not repeat.)
    latency_s: list = field(default_factory=list)
    wait_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)  # generator lateness per slot
    submit_s: list = field(default_factory=list)  # per submit() call
    budgets: list = field(default_factory=list)  # paths per detection
    records: "list[FlushRecord]" = field(default_factory=list)
    round_s: list = field(default_factory=list)  # drain: time per round
    completions: list = field(default_factory=list)  # (due, completed)
    backlog_start: int = 0
    backlog_end: int = 0
    on_time_ratio: float = 1.0

    @property
    def miss_ratio(self) -> float:
        late = sum(1 for value in self.latency_s if value > self.interval_s)
        return late / max(1, len(self.latency_s))


def prepare(seed: int) -> Prepared:
    spec = detector_spec(PACED)
    system = spec.system()
    rng = workload_rng(seed, NAME)
    width = PACED["cells"] * PACED["subcarriers"]
    # One coherence interval: every slot of the pool sees the same
    # channels, so the per-cell context caches stay warm.
    (first,), _ = make_blocks(
        system, PACED["snr_db"], width, SYMBOLS_PER_SLOT, 1, rng
    )
    pool, noise_var = make_blocks(
        system,
        PACED["snr_db"],
        width,
        SYMBOLS_PER_SLOT,
        PACED["pool_slots"],
        rng,
        channels=first.channels,
    )
    config = StackConfig(
        detector=spec,
        backend=BackendSpec("array"),
        farm=FarmSpec(streaming=True, cells=PACED["cells"]),
        scheduler=SchedulerSpec(batch_target=SYMBOLS_PER_SLOT),
    )
    answers = oracle(spec, pool, noise_var, use_soft=False)
    return Prepared(
        config=config,
        pool=pool,
        answers=answers,
        noise_var=noise_var,
        cells=config.farm.cell_ids(),
        quality=error_rates(system, pool, answers),
    )


def build_arrivals(
    prepared: Prepared, slots: int, first: int = 0
) -> "list[list[FrameArrival]]":
    """Every arrival of a phase, built before its clock starts; slot
    ``k`` carries pool block ``(first + k) % len(pool)``."""
    bursts = []
    for slot in range(first, first + slots):
        block = prepared.pool[slot % len(prepared.pool)]
        bursts.append(
            [
                FrameArrival(
                    channel=block.channels[sc],
                    received=block.received[sc],
                    noise_var=prepared.noise_var,
                    cell=prepared.cell_of(sc),
                )
                for sc in range(block.channels.shape[0])
            ]
        )
    return bursts


async def drive(
    scheduler,
    bursts: "list[list[FrameArrival]]",
    interval_s: float,
) -> "tuple[list, list, list, list]":
    """Submit each slot's burst at its due time, whatever the backlog.

    Every arrival is pre-stamped with its slot's due time before the
    first is submitted.  A driver that is behind still yields once per
    slot so the scheduler — which detects on this same loop — can run.

    Returns ``(futures, due_times, generator_lateness, submit_times)``.
    """
    origin = time.monotonic() + 0.005
    for slot, burst in enumerate(bursts):
        for arrival in burst:
            arrival.arrival_s = origin + slot * interval_s
    futures, due, late, submit = [], [], [], []
    for slot, burst in enumerate(bursts):
        slot_due = origin + slot * interval_s
        await asyncio.sleep(max(0.0, slot_due - time.monotonic()))
        now = time.monotonic()
        late.append(now - slot_due)
        for arrival in burst:
            futures.append(await scheduler.submit(arrival))
            due.append(slot_due)
        submit.append((time.monotonic() - now) / len(burst))
    await scheduler.flush()
    return futures, due, late, submit


def account(
    phase: Phase, prepared, bursts, results, due, governed, full_budget, first=0
):
    """Fold one batch of resolved futures into ``phase``: what was
    detected, shed or raised, per-slot latency, and the oracle check
    (slot ``k`` of ``bursts`` carries pool block ``first + k``).

    Returns the vectors that raised (the caller squares them with the
    scheduler's own ``frames_missing``).
    """
    raised = 0
    per_slot = {}
    seen = {id(record) for record in phase.records}
    for index, (result, due_s) in enumerate(zip(results, due)):
        slot, sc = divmod(index, len(bursts[0]))
        vectors = bursts[slot][sc].num_frames
        phase.attempted += vectors
        if isinstance(result, LoadShedError) and governed:
            phase.shed += vectors
            continue
        if isinstance(result, BaseException):
            raised += vectors
            continue
        phase.detected += vectors
        record = result.flush
        done, flushed = per_slot.get(slot, (0.0, 0.0))
        per_slot[slot] = (
            max(done, record.completed_s - due_s),
            max(flushed, record.flushed_s - due_s),
        )
        phase.budgets.append(result.metadata["paths"])
        phase.completions.append((due_s, record.completed_s))
        if id(record) not in seen:  # phase.records keeps every id alive
            seen.add(id(record))
            phase.records.append(record)
        # A governed flush at a clamped budget answers a different
        # question than the full-budget oracle; only full-budget
        # detections are compared.
        if result.metadata["paths"] == full_budget:
            answer = prepared.answers[(first + slot) % len(prepared.pool)]
            phase.failed += mismatched_vectors(
                result.indices, None, Expected(answer.indices[sc], None)
            )
    phase.latency_s += [done for done, _ in per_slot.values()]
    phase.wait_s += [flushed for _, flushed in per_slot.values()]
    return raised


async def run_phase(
    stack, prepared: Prepared, slots: int, interval_s: float, governor=None
) -> Phase:
    """One fixed-rate phase: ``slots`` bursts, one every ``interval_s``."""
    phase = Phase(interval_s=interval_s, slots=slots)
    bursts = build_arrivals(prepared, slots)
    async with stack.farm.scheduler(
        batch_target=SYMBOLS_PER_SLOT, slot_budget_s=interval_s, governor=governor
    ) as scheduler:
        futures, due, phase.late_s, phase.submit_s = await drive(
            scheduler, bursts, interval_s
        )
        results = await asyncio.gather(*futures, return_exceptions=True)
        telemetry = scheduler.telemetry
    raised = account(
        phase,
        prepared,
        bursts,
        results,
        due,
        governor is not None,
        stack.detector.num_paths,
    )
    # Raised arrivals are also missing from the scheduler's own count;
    # anything beyond them vanished without an exception.
    phase.failed += max(raised, telemetry.frames_missing)
    phase.on_time_ratio = telemetry.deadline_hit_rate
    if phase.completions:

        def backlog(at: float) -> int:
            return sum(1 for d, c in phase.completions if d < at < c)

        last_due = max(d for d, _ in phase.completions)
        first_due = min(d for d, _ in phase.completions)
        phase.backlog_start = backlog(first_due + 0.1 * (last_due - first_due))
        phase.backlog_end = backlog(last_due)
    return phase


async def run_drain(stack, prepared: Prepared, seconds: float) -> Phase:
    """The backlog drain: the farm's capacity with coalescing at work.

    A backlog of ``PACED["drain_backlog"]`` slots is queued at once, the
    scheduler coalesces it into one flush per cell, and the next backlog
    goes in when the last answer is back — for ``seconds`` (at least one
    round).  Only the time between a round's first submit and its last
    answer counts; building the next round's arrivals does not.
    """
    phase = Phase(interval_s=0.0, slots=0)
    depth = PACED["drain_backlog"]
    deadline = time.monotonic() + seconds
    async with stack.farm.scheduler(
        batch_target=SYMBOLS_PER_SLOT, slot_budget_s=float("inf")
    ) as scheduler:
        raised = 0
        while True:
            bursts = build_arrivals(prepared, depth, first=phase.slots)
            started = time.monotonic()
            futures = [
                await scheduler.submit(arrival)
                for burst in bursts
                for arrival in burst
            ]
            results = await asyncio.gather(*futures, return_exceptions=True)
            phase.round_s.append(time.monotonic() - started)
            phase.slots += depth
            raised += account(
                phase,
                prepared,
                bursts,
                results,
                [started] * len(results),
                False,
                stack.detector.num_paths,
                first=phase.slots - depth,
            )
            if time.monotonic() >= deadline:
                break
        phase.failed += max(raised, scheduler.telemetry.frames_missing)
    return phase


def summary(phases: "dict[str, Phase]") -> dict:
    """Rate from the drain's rounds (every round is one backlog of the
    same size, all of it detected unless the run failed), latency from
    the nominal rate's slot bursts."""
    drain = phases["drain"]
    per_round = drain.detected / len(drain.round_s)
    return {
        **rates(drain.round_s, [per_round] * len(drain.round_s)),
        **latencies(phases[PACED["nominal"]].latency_s),
    }


def set_up(prepared: Prepared):
    """Build the farm stack and warm both cells' caches with one round."""
    start = time.perf_counter()
    stack = build_stack(prepared.config)
    asyncio.run(run_drain(stack, prepared, 0.0))
    return stack, time.perf_counter() - start


def governor_for(stack):
    """The ``farm-overload`` preset's AIMD governor, at this detector's
    path range."""
    spec = dataclasses.replace(
        presets.get("farm-overload").governor,
        paths_max=stack.detector.num_paths,
    )
    return spec.build(constellation=stack.detector.system.constellation)


def run_phases(stack, prepared: Prepared, seconds: float) -> "dict[str, Phase]":
    """(a) backlog drain, (b) the ungoverned fixed rates, (c) the
    governed overload rate — each for its share of ``seconds``."""
    shares, rates = PACED["phase_share"], PACED["rates"]
    phases = {
        "drain": asyncio.run(run_drain(stack, prepared, shares["drain"] * seconds))
    }
    for name, rate in rates.items():
        slots = max(2, round(shares[name] * seconds * rate))
        governor = governor_for(stack) if name == PACED["governed"] else None
        phases[name] = asyncio.run(
            run_phase(stack, prepared, slots, 1.0 / rate, governor)
        )
    return phases


def run(name: str, seed: int, seconds: float, import_s: float) -> dict:
    """The untraced pass: the end-to-end metrics of the paced farm."""
    prepared = prepare(seed)
    (stack, _), setup_s = set_up_repeatedly(
        lambda: set_up(prepared), setup_repeats(seconds)
    )
    with stack:
        phases = run_phases(stack, prepared, seconds)
    return {
        "attempted": sum(phase.attempted for phase in phases.values()),
        "failed": sum(phase.failed for phase in phases.values()),
        "samples": len(phases[PACED["nominal"]].latency_s),
        "metrics": {
            **summary(phases),
            **prepared.quality,
            "setup_s": import_s + setup_s,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


# ----------------------------------------------------------------------
def _scheduler_ledger(phases: "dict[str, Phase]") -> dict:
    rates = PACED["rates"]
    loaded = phases[PACED["loaded"]]
    governed = phases[PACED["governed"]]
    reasons = {"target": 0, "deadline": 0, "drain": 0}
    for record in loaded.records:
        reasons[record.reason] += 1
    met = [
        rates[name]
        for name in rates
        if name != PACED["governed"]
        and percentile(phases[name].latency_s, 90) <= phases[name].interval_s
        and phases[name].backlog_end <= phases[name].backlog_start
    ]
    ledger = {
        "scheduler.queue_wait_p50_ms": median(loaded.wait_s) * 1e3,
        "scheduler.queue_wait_p90_ms": percentile(loaded.wait_s, 90) * 1e3,
        "scheduler.service_p50_ms": median(
            r.completed_s - r.flushed_s for r in loaded.records
        )
        * 1e3,
        "scheduler.groups_per_flush": sum(r.subcarriers for r in loaded.records)
        / len(loaded.records),
        "scheduler.flushes": len(loaded.records),
        "scheduler.submit_us": median(loaded.submit_s) * 1e6,
        "scheduler.generator_late_p90_ms": percentile(loaded.late_s, 90) * 1e3,
        "scheduler.latency_p99_ms.r40": percentile(loaded.latency_s, 99) * 1e3,
        "scheduler.max_rate_met": max(met, default=0.0),
        "governor.on_time_ratio.r90": governed.on_time_ratio,
        "governor.mean_budget.r90": (
            sum(governed.budgets) / len(governed.budgets)
            if governed.budgets
            else 0.0
        ),
        "governor.shed_ratio.r90": governed.shed / governed.attempted,
    }
    for reason, count in reasons.items():
        ledger[f"scheduler.flush_reason.{reason}"] = count
    for name in ("r40", "r55"):
        ledger[f"scheduler.latency_p50_ms.{name}"] = (
            median(phases[name].latency_s) * 1e3
        )
    for name in ("r25", "r40", "r55"):
        ledger[f"scheduler.deadline_miss_ratio.{name}"] = phases[name].miss_ratio
    return ledger


def _control_ledger(stack, prepared: Prepared) -> dict:
    """Pure bookkeeping costs: the micro-batcher on an injected clock,
    and the governor fed two lanes of fabricated flush records."""
    bursts = build_arrivals(prepared, 8)
    arrivals = [arrival for burst in bursts for arrival in burst]

    def batch_all():
        batcher = MicroBatcher(SYMBOLS_PER_SLOT, slot_budget_s=1.0)
        now = 0.0
        for arrival in arrivals:
            arrival.arrival_s = None
            batcher.add(arrival, None, now)
            batcher.pop_expired(now)
            now += 1e-3

    governor = governor_for(stack)
    governor.bind_slot_budget(0.025)
    records = [
        FlushRecord(cell, "target", 8, 56, 0.0, 0.001, 0.016, 0.025)
        for cell in prepared.cells
    ]

    def observe():
        for record in records:
            governor.observe_flush(record.cell, record)

    def tick():
        observe()
        governor.tick(1.0)

    observe_us = median_us(observe, 0.05) / len(records)
    return {
        "scheduler.microbatcher_add_us": median_us(batch_all, 0.1)
        / len(arrivals),
        "governor.observe_flush_us": observe_us,
        "governor.tick_us": median_us(tick, 0.05) - observe_us * len(records),
    }


def _batch_rate(prepared: Prepared, seconds: float) -> float:
    """Vectors/s of the same slots through one ``detect_batch`` each."""
    config = StackConfig(
        detector=prepared.config.detector, backend=prepared.config.backend
    )
    pool = prepared.pool

    def detect(stack, call: int) -> None:
        block = pool[call % len(pool)]
        stack.detect_batch(block.channels, block.received, prepared.noise_var)

    with build_stack(config) as stack:
        detect(stack, 0)
        detect(stack, 1)
        calls = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            detect(stack, calls)
            calls += 1
        return calls * pool[0].vectors / (time.perf_counter() - start)


def _traced_loaded(stack, prepared: Prepared, seconds: float, trace_path):
    """Repeat the loaded-rate phase with the layer calls wrapped, and
    hang each flush's live spans under spans rebuilt from its record."""
    recorder = Recorder(NAME)
    for span_name, (owner, attr) in closed.LAYER_CALLS.items():
        if span_name != "api":  # the scheduler calls the service directly
            recorder.wrap(owner, attr, span_name)
    rate = PACED["rates"][PACED["loaded"]]
    try:
        phase = asyncio.run(
            run_phase(stack, prepared, max(2, round(seconds * rate)), 1.0 / rate)
        )
    finally:
        recorder.unwrap_all()
    live = [
        index
        for index, span in enumerate(recorder.spans)
        if span["name"] == "service"
    ]  # already in start order; flushes are dispatched one at a time
    records = sorted(phase.records, key=lambda record: record.flushed_s)
    for iteration, (record, service) in enumerate(zip(records, live)):
        recorder.iteration = iteration
        root = recorder.add("flush", record.first_arrival_s, record.completed_s)
        recorder.add(
            "scheduler.queue_wait",
            record.first_arrival_s,
            record.flushed_s,
            parent=root,
        )
        recorder.spans[service]["parent"] = root
    recorder.write_chrome(trace_path)
    total = sum(r.completed_s - r.first_arrival_s for r in phase.records)
    own = {}
    for span, value in zip(recorder.spans, self_times(recorder.spans)):
        own[span["name"]] = own.get(span["name"], 0.0) + value
    shares = dict(closed.SHARES, **{"share.queue_wait": ("scheduler.queue_wait",)})
    ledger = {
        share: 100.0 * sum(own.get(name, 0.0) for name in names) / total
        for share, names in shares.items()
    }
    ledger["bench.unattributed_share"] = own.get("flush", 0.0) / total
    return phase, ledger


def run_traced(
    name: str, seed: int, seconds: float, import_s: float, trace_path
) -> dict:
    """The traced pass: the whole protocol untraced for the scheduler's
    public records, then the loaded rate again with spans."""
    prepared = prepare(seed)
    stack, _ = set_up(prepared)
    with stack:
        phases = run_phases(stack, prepared, 0.6 * seconds)
        ledger = _scheduler_ledger(phases)
        traced, shares = _traced_loaded(
            stack, prepared, 0.2 * seconds, trace_path
        )
        ledger.update(shares)
        ledger.update(_control_ledger(stack, prepared))
        detector = stack.detector
    plain = ledger["scheduler.service_p50_ms"]
    ledger["bench.trace_overhead_ratio"] = (
        median(r.completed_s - r.flushed_s for r in traced.records) * 1e3 / plain
    )
    ledger.update(summary(phases))
    ledger["scheduler.streaming_vs_batch_ratio"] = ledger[
        "vectors_per_s.sustained"
    ] / _batch_rate(prepared, 0.08 * seconds)
    # The kernels at the shape one cell's flush hands them: 8 x 7.
    per_cell = [
        Block(
            block.channels[: PACED["subcarriers"]],
            block.received[: PACED["subcarriers"]],
            block.sent[: PACED["subcarriers"]],
        )
        for block in prepared.pool[:8]
    ]
    ledger.update(
        layers.kernel_ledger(
            detector, per_cell[0], prepared.noise_var, False, seconds / 48
        )
    )
    ledger.update(
        layers.transfer_ledger(detector, per_cell, prepared.noise_var, False)
    )
    ledger.update(
        layers.api_ledger(
            prepared.config, import_s, median(phases[PACED["nominal"]].latency_s)
        )
    )
    ledger.update(prepared.quality)
    attempted = sum(p.attempted for p in phases.values()) + traced.attempted
    failed = sum(p.failed for p in phases.values()) + traced.failed
    ledger["failed_ratio"] = failed / attempted
    return {"attempted": attempted, "failed": failed, "metrics": ledger}
