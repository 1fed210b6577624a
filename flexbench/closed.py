"""The three closed-loop workloads: warm_walk, cold_mobility, soft_llr.

One caller, zero think time: the next ``detect_batch`` block is issued
only after the previous one returned, so a slower stack is simply handed
less work.  The stack is driven through ``repro.api.build_stack`` /
``UplinkStack.detect_batch`` only.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

from flexbench import layers
from flexbench.inputs import (
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
    rates,
    set_up_repeatedly,
)
from flexbench.recorder import Recorder, self_times
from flexbench.spec import CLOSED_LOOPS, setup_repeats
from repro.api import BackendSpec, StackConfig, TracingSpec, build_stack
from repro.api.stack import UplinkStack
from repro.flexcore import detector as flexcore_detector
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.probability import LevelErrorModel
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.obs import NULL_TRACER
from repro.obs.tracer import Tracer
from repro.runtime import cache as runtime_cache
from repro.runtime.cache import ContextCache
from repro.runtime.service import DetectionService

#: Span name -> (owner, attribute): the public function of each layer a
#: closed-loop block call passes through, outermost first.
LAYER_CALLS = {
    "api": (UplinkStack, "detect_batch"),
    "service": (DetectionService, "detect"),
    "cache": (ContextCache, "get_or_prepare_block"),
    "cache.keys": (runtime_cache, "block_context_keys"),
    "detector.prepare": (FlexCoreDetector, "prepare_many"),
    "qr": (flexcore_detector, "stacked_sorted_qr"),
    "probability": (LevelErrorModel, "from_channels"),
    "preprocessing.tree_search": (
        flexcore_detector,
        "find_promising_paths_block",
    ),
    "detector.walk": (FlexCoreDetector, "detect_block_prepared"),
    "soft.walk": (SoftFlexCoreDetector, "detect_soft_block_prepared"),
}

#: Ledger share name -> the span names folded into it.
SHARES = {
    "share.qr": ("qr",),
    "share.probability": ("probability",),
    "share.tree_search": ("preprocessing.tree_search",),
    "share.prepare": ("detector.prepare",),
    "share.walk": ("detector.walk", "soft.walk"),
    "share.cache": ("cache", "cache.keys"),
    "share.service": ("service",),
    "share.api": ("api",),
}


@dataclass
class Prepared:
    """A closed-loop workload with its inputs and oracle answers."""

    name: str
    config: StackConfig
    blocks: list
    noise_var: float
    answers: list
    use_soft: bool
    quality: dict


def prepare(name: str, seed: int) -> Prepared:
    params = CLOSED_LOOPS[name]
    spec = detector_spec(params)
    blocks, noise_var = make_blocks(
        spec.system(),
        params["snr_db"],
        params["subcarriers"],
        params["symbols"],
        params["blocks"],
        workload_rng(seed, name),
    )
    answers = oracle(spec, blocks, noise_var, params["use_soft"])
    return Prepared(
        name=name,
        config=StackConfig(detector=spec, backend=BackendSpec("array")),
        blocks=blocks,
        noise_var=noise_var,
        answers=answers,
        use_soft=params["use_soft"],
        quality=error_rates(spec.system(), blocks, answers),
    )


def set_up(prepared: Prepared, config: "StackConfig | None" = None):
    """Build the stack and let its caches fill: one pass over every
    block (on ``cold_mobility`` that overflows the cache, so the timed
    loop starts in its steady all-miss state)."""
    start = time.perf_counter()
    stack = build_stack(config or prepared.config)
    for block in prepared.blocks:
        stack.detect_batch(
            block.channels,
            block.received,
            prepared.noise_var,
            use_soft=prepared.use_soft,
        )
    return stack, time.perf_counter() - start


def timed_loop(stack, prepared: Prepared, seconds: float, recorder=None):
    """Cycle the blocks for ``seconds``; check each result after its
    stop stamp.  With a recorder, odd iterations are traced and even
    ones are not, so the two share whatever the machine is doing.

    Returns ``(durations, traced_flags, failed_vectors, attempted_vectors,
    stats)`` where ``stats`` are the per-call ``result.stats``.
    """
    durations, traced, stats = [], [], []
    failed = attempted = 0
    count = len(prepared.blocks)
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        block = prepared.blocks[iteration % count]
        tracing = recorder is not None and iteration % 2 == 1
        if recorder is not None:
            recorder.enabled = tracing
            recorder.iteration = iteration
        attempted += block.vectors
        result = None
        start = time.perf_counter()
        try:
            with recorder.span("block") if tracing else nullcontext():
                result = stack.detect_batch(
                    block.channels,
                    block.received,
                    prepared.noise_var,
                    use_soft=prepared.use_soft,
                )
        except Exception:  # a raised block is a failed block; keep going
            traceback.print_exc(file=sys.stderr)
        stop = time.perf_counter()
        durations.append(stop - start)
        traced.append(tracing)
        if result is None:
            failed += block.vectors
        else:
            failed += mismatched_vectors(
                result.indices, result.llrs, prepared.answers[iteration % count]
            )
            stats.append(result.stats)
        iteration += 1
        if stop >= deadline:
            break
    return durations, traced, failed, attempted, stats


def run(name: str, seed: int, seconds: float, import_s: float) -> dict:
    """The untraced pass: the end-to-end metrics of one closed loop."""
    prepared = prepare(name, seed)
    (stack, _), setup_s = set_up_repeatedly(
        lambda: set_up(prepared), setup_repeats(seconds)
    )
    with stack:
        durations, _, failed, attempted, _ = timed_loop(
            stack, prepared, seconds
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(durations),
        "metrics": {
            **rates(durations, [prepared.blocks[0].vectors] * len(durations)),
            **latencies(durations),
            **prepared.quality,
            "setup_s": import_s + setup_s,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


# ----------------------------------------------------------------------
def _fold(recorder: Recorder, block_durations: "list[float]") -> dict:
    """Self-time fold of the traced iterations into ledger entries."""
    total = sum(block_durations)
    per_iteration = defaultdict(lambda: defaultdict(float))
    totals = defaultdict(float)
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        per_iteration[span["name"]][span["iteration"]] += own
        totals[span["name"]] += own
    ledger = {
        share: 100.0 * sum(totals[name] for name in names) / total
        for share, names in SHARES.items()
    }
    ledger["bench.unattributed_share"] = totals["block"] / total
    prepare_total = sum(
        span["end"] - span["start"]
        for span in recorder.spans
        if span["name"] == "detector.prepare"
    )
    ledger["detector.prepare_share"] = prepare_total / total
    ledger["service.overhead_us"] = (
        median(per_iteration["service"].values()) * 1e6
    )
    ledger["api.facade_overhead_us"] = (
        median(per_iteration["api"].values()) * 1e6
    )
    return ledger


def _stats_ledger(stats: "list[dict]") -> dict:
    """Cache and residency movement from the public ``result.stats``."""
    hits = sum(s["cache"].hits for s in stats)
    misses = sum(s["cache"].misses for s in stats)
    resident_hits = sum(s["resident"].hits for s in stats)
    resident_misses = sum(s["resident"].misses for s in stats)
    return {
        "cache.hit_ratio": hits / (hits + misses),
        "cache.evictions": sum(s["cache"].evictions for s in stats) / len(stats),
        "residency.hit_ratio": resident_hits / (resident_hits + resident_misses),
        "residency.invalidations": sum(
            s["resident"].invalidations for s in stats
        )
        / len(stats),
    }


def _obs_ledger(prepared: Prepared, seconds: float) -> dict:
    """What ``repro.obs`` costs: one span, and a whole traced stack."""

    def spans(tracer):
        for _ in range(1000):
            with tracer.span("flexbench"):
                pass

    # 1000 spans per call: microseconds per call are nanoseconds per span.
    ledger = {
        "obs.null_span_ns": median_us(lambda: spans(NULL_TRACER), 0.1),
        "obs.enabled_span_ns": median_us(lambda: spans(Tracer()), 0.1),
    }
    # Plain and obs-traced stacks take turns block by block.
    traced_config = StackConfig(
        detector=prepared.config.detector,
        backend=prepared.config.backend,
        tracing=TracingSpec(enabled=True),
    )
    plain, _ = set_up(prepared)
    with plain:
        enabled, _ = set_up(prepared, traced_config)
        with enabled:
            stacks, times = (plain, enabled), ([], [])
            deadline = time.perf_counter() + seconds
            iteration = 0
            while time.perf_counter() < deadline:
                block = prepared.blocks[(iteration // 2) % len(prepared.blocks)]
                start = time.perf_counter()
                stacks[iteration % 2].detect_batch(
                    block.channels,
                    block.received,
                    prepared.noise_var,
                    use_soft=prepared.use_soft,
                )
                times[iteration % 2].append(time.perf_counter() - start)
                iteration += 1
    ledger["obs.enabled_overhead_ratio"] = median(times[1]) / median(times[0])
    return ledger


def run_traced(
    name: str, seed: int, seconds: float, import_s: float, trace_path
) -> dict:
    """The traced pass: the per-layer ledger of one closed loop."""
    prepared = prepare(name, seed)
    stack, _ = set_up(prepared)
    recorder = Recorder(name)
    for span_name, (owner, attr) in LAYER_CALLS.items():
        recorder.wrap(owner, attr, span_name)
    try:
        with stack:
            durations, traced, failed, attempted, stats = timed_loop(
                stack, prepared, 0.5 * seconds, recorder
            )
    finally:
        recorder.unwrap_all()
    recorder.write_chrome(trace_path)
    on = [d for d, flag in zip(durations, traced) if flag]
    off = [d for d, flag in zip(durations, traced) if not flag]
    ledger = _fold(recorder, on)
    ledger["bench.trace_overhead_ratio"] = median(on) / median(off)
    ledger.update(latencies(off))
    ledger.update(rates(off, [prepared.blocks[0].vectors] * len(off)))
    ledger.update(_stats_ledger(stats))
    detector = stack.detector
    ledger.update(
        layers.kernel_ledger(
            detector,
            prepared.blocks[0],
            prepared.noise_var,
            prepared.use_soft,
            seconds / 48,
        )
    )
    ledger.update(
        layers.transfer_ledger(
            detector, prepared.blocks, prepared.noise_var, prepared.use_soft
        )
    )
    ledger.update(layers.api_ledger(prepared.config, import_s, median(off)))
    if name == "warm_walk":
        ledger.update(_obs_ledger(prepared, 0.25 * seconds))
    ledger.update(prepared.quality)
    ledger["failed_ratio"] = failed / attempted
    return {"attempted": attempted, "failed": failed, "metrics": ledger}
