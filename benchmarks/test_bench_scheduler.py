"""Scheduler benches: streaming slot-deadline service vs the batch engine.

Two headline numbers on the 64-subcarrier x 16-frame FlexCore reference
block (one 20 MHz Wi-Fi coherence block of an 8x8 16-QAM uplink),
sharded across 4 cells:

* **Throughput at equal work**: streaming the block through the
  slot-deadline scheduler (per-subcarrier arrivals, micro-batch
  assembly, per-cell caches, flush coalescing) must stay within 20% of
  the batch engine's frames/sec — the asyncio layer may tax, not sink,
  the paper's throughput story.
* **Deadline hit-rate at the calibrated arrival rate**: pacing LTE-style
  slot bursts (7 symbol vectors per subcarrier per slot) at an arrival
  rate calibrated to the measured warm slot cost, >= 99% of frames must
  complete within their slot budget.

Every run appends measurements to ``BENCH_scheduler.json`` at the repo
root, so the repository accumulates a perf trajectory.
"""

import asyncio
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    DetectorSpec,
    FarmSpec,
    StackConfig,
    build_stack,
)
from repro.channel.fading import rayleigh_channels
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.ofdm.lte import SYMBOLS_PER_SLOT
from repro.runtime import FrameArrival

NUM_SUBCARRIERS = 64
NUM_FRAMES = 16
NUM_PATHS = 32
NUM_CELLS = 4
PACED_SLOTS = 6
CALIBRATION_MARGIN = 2.5


def reference_config(streaming: bool = False, cells: int = 1) -> StackConfig:
    """The bench's whole stack, declared once through the api facade."""
    return StackConfig(
        detector=DetectorSpec(
            "flexcore", 8, 8, 16, params={"num_paths": NUM_PATHS}
        ),
        backend=BackendSpec("serial"),
        farm=FarmSpec(streaming=streaming, cells=cells),
    )

BENCH_RECORD_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_scheduler.json"
)


def record_bench(name: str, payload: dict) -> None:
    """Append one perf record to ``BENCH_scheduler.json``."""
    document = {"records": []}
    if BENCH_RECORD_PATH.exists():
        try:
            document = json.loads(BENCH_RECORD_PATH.read_text())
        except (ValueError, OSError):  # pragma: no cover - corrupt file
            document = {"records": []}
    document.setdefault("records", []).append(
        {
            "bench": name,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "block": {
                "subcarriers": NUM_SUBCARRIERS,
                "frames": NUM_FRAMES,
                "mimo": "8x8",
                "qam": 16,
                "num_paths": NUM_PATHS,
                "cells": NUM_CELLS,
            },
            **payload,
        }
    )
    BENCH_RECORD_PATH.write_text(json.dumps(document, indent=2) + "\n")


@pytest.fixture(scope="module")
def workload():
    """The 64 x 16 reference block of an 8x8 16-QAM uplink."""
    system = MimoSystem(8, 8, QamConstellation(16))
    rng = np.random.default_rng(2017)
    channels = rayleigh_channels(NUM_SUBCARRIERS, 8, 8, rng)
    noise_var = noise_variance_for_snr_db(20.0)
    received = np.empty(
        (NUM_SUBCARRIERS, NUM_FRAMES, 8), dtype=np.complex128
    )
    for sc in range(NUM_SUBCARRIERS):
        indices = random_symbol_indices(
            NUM_FRAMES, 8, system.constellation, rng
        )
        received[sc] = apply_channel(
            channels[sc], system.constellation.points[indices], noise_var, rng
        )
    return system, channels, received, noise_var


def test_streaming_throughput_within_20pct_of_batch(workload):
    """Equal work: the full block through scheduler vs batch engine."""
    system, channels, received, noise_var = workload
    batch_engine = build_stack(reference_config())
    streaming = build_stack(reference_config(streaming=True, cells=NUM_CELLS))

    reference = batch_engine.detect_batch(channels, received, noise_var)
    streamed = streaming.detect_batch(channels, received, noise_var)
    # The acceptance bar's equivalence half: bit-identical output.
    assert np.array_equal(streamed.indices, reference.indices)
    assert streamed.stats["cells"] == NUM_CELLS

    batch_s = float("inf")
    streaming_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch_engine.detect_batch(channels, received, noise_var)
        batch_s = min(batch_s, time.perf_counter() - start)
        start = time.perf_counter()
        streaming.detect_batch(channels, received, noise_var)
        streaming_s = min(streaming_s, time.perf_counter() - start)

    frames = NUM_SUBCARRIERS * NUM_FRAMES
    batch_fps = frames / batch_s
    streaming_fps = frames / streaming_s
    ratio = streaming_fps / batch_fps
    print(
        f"\nbatch {batch_s * 1e3:.1f} ms ({batch_fps:,.0f} frames/s), "
        f"streaming {streaming_s * 1e3:.1f} ms "
        f"({streaming_fps:,.0f} frames/s) -> {ratio:.2f}x of batch"
    )
    record_bench(
        "streaming_vs_batch_equal_work",
        {
            "backend": "serial",
            "batch_s": batch_s,
            "streaming_s": streaming_s,
            "batch_frames_per_s": batch_fps,
            "streaming_frames_per_s": streaming_fps,
            "throughput_ratio": ratio,
        },
    )
    assert ratio >= 0.8, (
        f"streaming only {ratio:.2f}x of batch throughput (bar: 0.8)"
    )


def test_paced_slots_meet_99pct_of_deadlines(workload):
    """LTE-style slot bursts at the calibrated arrival rate."""
    system, channels, received, noise_var = workload
    rng = np.random.default_rng(20170)
    per_cell = NUM_SUBCARRIERS // NUM_CELLS
    stack = build_stack(reference_config(streaming=True, cells=NUM_CELLS))
    farm = stack.farm
    cell_channels = {
        cell_id: channels[index * per_cell : (index + 1) * per_cell]
        for index, cell_id in enumerate(stack.cell_ids)
    }

    def slot_arrivals():
        for cell_id, block in cell_channels.items():
            for sc in range(per_cell):
                indices = random_symbol_indices(
                    SYMBOLS_PER_SLOT, 8, system.constellation, rng
                )
                burst = apply_channel(
                    block[sc],
                    system.constellation.points[indices],
                    noise_var,
                    rng,
                )
                yield FrameArrival(
                    channel=block[sc],
                    received=burst,
                    noise_var=noise_var,
                    cell=cell_id,
                )

    async def one_pass(slot_budget_s):
        async with farm.scheduler(
            batch_target=SYMBOLS_PER_SLOT, slot_budget_s=slot_budget_s
        ) as scheduler:
            futures = [
                await scheduler.submit(arrival)
                for arrival in slot_arrivals()
            ]
            await scheduler.flush()
            await asyncio.gather(*futures)

    async def paced_run(slot_interval):
        async with farm.scheduler(
            batch_target=SYMBOLS_PER_SLOT, slot_budget_s=slot_interval
        ) as scheduler:
            start = time.monotonic()
            futures = []
            for slot in range(PACED_SLOTS):
                delay = start + slot * slot_interval - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                for arrival in slot_arrivals():
                    futures.append(await scheduler.submit(arrival))
            await scheduler.flush()
            await asyncio.gather(*futures)
            return scheduler.telemetry, time.monotonic() - start

    # Calibrate: cold pass fills caches, warm pass prices one slot.
    asyncio.run(one_pass(float("inf")))
    start = time.perf_counter()
    asyncio.run(one_pass(float("inf")))
    slot_work_s = time.perf_counter() - start
    slot_interval = CALIBRATION_MARGIN * slot_work_s

    telemetry, elapsed = asyncio.run(paced_run(slot_interval))
    hit_rate = telemetry.deadline_hit_rate
    frames_per_s = telemetry.frames_detected / elapsed
    quantiles = telemetry.latency_percentiles
    print(
        f"\nwarm slot {slot_work_s * 1e3:.1f} ms, interval/budget "
        f"{slot_interval * 1e3:.1f} ms: {telemetry.frames_detected} frames "
        f"in {elapsed * 1e3:.0f} ms ({frames_per_s:,.0f} frames/s), "
        f"hit-rate {hit_rate:.1%}, flush latency "
        f"p50/p95/p99 {quantiles['p50'] * 1e3:.1f}/"
        f"{quantiles['p95'] * 1e3:.1f}/{quantiles['p99'] * 1e3:.1f} ms, "
        f"max {telemetry.max_latency_s * 1e3:.1f} ms"
    )
    record_bench(
        "paced_slot_deadline_hit_rate",
        {
            "backend": "serial",
            "slots": PACED_SLOTS,
            "symbols_per_slot": SYMBOLS_PER_SLOT,
            "slot_work_s": slot_work_s,
            "slot_interval_s": slot_interval,
            "calibration_margin": CALIBRATION_MARGIN,
            "frames": telemetry.frames_detected,
            "frames_per_s": frames_per_s,
            "deadline_hit_rate": hit_rate,
            "latency_p50_s": quantiles["p50"],
            "latency_p95_s": quantiles["p95"],
            "latency_p99_s": quantiles["p99"],
            "max_latency_s": telemetry.max_latency_s,
            "flush_reasons": dict(telemetry.flush_reasons),
        },
    )
    stack.close()
    assert hit_rate >= 0.99, (
        f"deadline hit-rate {hit_rate:.1%} at the calibrated arrival rate"
    )
