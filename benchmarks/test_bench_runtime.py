"""Runtime benches: batched engine vs the naive per-vector loop, and the
stacked tensor-walk (``array``) backend vs the per-subcarrier serial
loop.

Two headline numbers on a 64-subcarrier x 16-frame FlexCore workload —
one 20 MHz Wi-Fi coherence block:

* the batched engine with context caching must beat the per-vector
  ``detect`` loop by at least 5x (the §4 coherence amortisation plus
  frame vectorisation);
* the ``array`` backend's stacked ``(S, F, P, Nt)`` walk must beat the
  serial per-subcarrier backend by at least 2x on the steady-state
  (warm-cache) detection path — the §5.2 "every processing element in
  flight at once" win.

Every run of this module also appends the measurements to
``BENCH_runtime.json`` at the repo root (block shape, backend, wall
times, speedups), so the repository accumulates a perf trajectory.
"""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import BackendSpec, DetectorSpec, StackConfig, build_stack
from repro.channel.fading import rayleigh_channels
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices

NUM_SUBCARRIERS = 64
NUM_FRAMES = 16
NUM_PATHS = 32


def reference_config(backend: str = "serial", **overrides) -> StackConfig:
    """The bench's whole stack, declared once through the api facade."""
    return StackConfig(
        detector=DetectorSpec(
            "flexcore", 8, 8, 16, params={"num_paths": NUM_PATHS}
        ),
        backend=BackendSpec(backend),
        **overrides,
    )

BENCH_RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_runtime.json"


def record_bench(name: str, payload: dict) -> None:
    """Append one perf record to ``BENCH_runtime.json``."""
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
            },
            **payload,
        }
    )
    BENCH_RECORD_PATH.write_text(json.dumps(document, indent=2) + "\n")


@pytest.fixture(scope="module")
def workload():
    """64 subcarriers x 16 frames of an 8x8 16-QAM uplink."""
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


def naive_per_vector(detector, channels, received, noise_var):
    """One prepare+detect per received vector — the pre-runtime hot path."""
    out = np.empty(
        received.shape[:2] + (detector.system.num_streams,), dtype=np.int64
    )
    for sc in range(received.shape[0]):
        for frame in range(received.shape[1]):
            out[sc, frame] = detector.detect(
                channels[sc], received[sc, frame : frame + 1], noise_var
            ).indices[0]
    return out


def test_engine_speedup_over_per_vector_loop(workload):
    """The acceptance bar: >= 5x throughput with context caching enabled."""
    system, channels, received, noise_var = workload
    engine = build_stack(reference_config())
    detector = engine.detector

    start = time.perf_counter()
    reference = naive_per_vector(detector, channels, received, noise_var)
    naive_s = time.perf_counter() - start

    # Best of two engine passes on a cold cache, so one scheduling hiccup
    # cannot mask the real ratio.
    engine_s = float("inf")
    for _ in range(2):
        engine.clear_cache()
        start = time.perf_counter()
        batched = engine.detect_batch(channels, received, noise_var)
        engine_s = min(engine_s, time.perf_counter() - start)

    assert np.array_equal(batched.indices, reference)
    speedup = naive_s / engine_s
    print(
        f"\nnaive {naive_s * 1e3:.1f} ms, engine {engine_s * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    record_bench(
        "engine_vs_per_vector_loop",
        {
            "backend": "serial",
            "naive_s": naive_s,
            "engine_s": engine_s,
            "speedup": speedup,
        },
    )
    assert speedup >= 5.0, f"engine only {speedup:.2f}x over per-vector loop"


def test_array_backend_speedup_over_serial(workload):
    """The stacked tensor-walk acceptance bar: >= 2x over the serial
    per-subcarrier backend on the steady-state detection path.

    Both engines run warm (contexts prepared and cached) so the measured
    ratio isolates the walk itself — the §4 coherence amortisation makes
    steady-state detection the throughput-critical regime, and prepare
    work is identical on both sides anyway.
    """
    system, channels, received, noise_var = workload
    serial = build_stack(reference_config("serial"))
    array = build_stack(reference_config("array"))

    reference = serial.detect_batch(channels, received, noise_var)  # warm up
    stacked = array.detect_batch(channels, received, noise_var)
    assert stacked.stats["stacked"]
    assert np.array_equal(stacked.indices, reference.indices)

    serial_s = float("inf")
    array_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        serial.detect_batch(channels, received, noise_var)
        serial_s = min(serial_s, time.perf_counter() - start)
        start = time.perf_counter()
        array.detect_batch(channels, received, noise_var)
        array_s = min(array_s, time.perf_counter() - start)

    speedup = serial_s / array_s
    print(
        f"\nserial {serial_s * 1e3:.1f} ms, array {array_s * 1e3:.1f} ms, "
        f"stacked-walk speedup {speedup:.1f}x"
    )
    record_bench(
        "array_backend_vs_serial",
        {
            "backend": "array",
            "array_module": stacked.stats["array_module"],
            "serial_s": serial_s,
            "array_s": array_s,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"array backend only {speedup:.2f}x over the serial backend"
    )


def test_cold_prepare_batched_vs_serial(workload):
    """The batched cold path acceptance bar: ``prepare_many`` (stacked
    QR → stacked error model → lockstep tree search) must beat the
    per-channel ``prepare`` loop by at least 2x on one coherence block
    (floor; target ~4x).  This is the §3.1.1 frontier batching applied
    across the whole coherence block — what keeps cache *misses* cheap
    once mobility scenarios make them the common case.
    """
    system, channels, received, noise_var = workload
    detector = build_stack(reference_config()).detector

    serial_s = float("inf")
    block_s = float("inf")
    serial_contexts = block_contexts = None
    for _ in range(3):
        start = time.perf_counter()
        serial_contexts = [
            detector.prepare(channels[c], noise_var)
            for c in range(NUM_SUBCARRIERS)
        ]
        serial_s = min(serial_s, time.perf_counter() - start)
        start = time.perf_counter()
        block_contexts = detector.prepare_many(channels, noise_var)
        block_s = min(block_s, time.perf_counter() - start)

    # The speedup only counts if the block path is bit-identical.
    for a, b in zip(serial_contexts, block_contexts):
        assert np.array_equal(
            a.preprocessing.position_vectors, b.preprocessing.position_vectors
        )
        assert np.array_equal(
            a.preprocessing.probabilities, b.preprocessing.probabilities
        )
        assert (
            a.preprocessing.real_multiplications
            == b.preprocessing.real_multiplications
        )

    speedup = serial_s / block_s
    print(
        f"\nper-channel prepare {serial_s * 1e3:.1f} ms, batched "
        f"{block_s * 1e3:.1f} ms, cold-prepare speedup {speedup:.1f}x"
    )
    record_bench(
        "cold_prepare_batched_vs_serial",
        {
            "backend": "prepare",
            "serial_s": serial_s,
            "batched_s": block_s,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"batched prepare only {speedup:.2f}x over the per-channel loop"
    )


def test_array_backend_cold_prepare_not_slower(workload):
    """Cold-cache path: every backend now rides the batched prepare, so
    the array walk's advantage must survive on cold blocks too (the
    floor ratchets up from 1.0 pre-batching to 1.5)."""
    system, channels, received, noise_var = workload
    serial = build_stack(reference_config("serial"))
    array = build_stack(reference_config("array"))

    serial_s = float("inf")
    array_s = float("inf")
    for _ in range(2):
        serial.clear_cache()
        start = time.perf_counter()
        serial.detect_batch(channels, received, noise_var)
        serial_s = min(serial_s, time.perf_counter() - start)
        array.clear_cache()
        start = time.perf_counter()
        array.detect_batch(channels, received, noise_var)
        array_s = min(array_s, time.perf_counter() - start)

    speedup = serial_s / array_s
    print(
        f"\ncold serial {serial_s * 1e3:.1f} ms, cold array "
        f"{array_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    record_bench(
        "array_backend_vs_serial_cold",
        {
            "backend": "array",
            "serial_s": serial_s,
            "array_s": array_s,
            "speedup": speedup,
        },
    )
    assert speedup >= 1.5, (
        f"cold array path only {speedup:.2f}x over the serial backend"
    )


def test_warm_path_uploads_zero_context_bytes(workload):
    """Device residency acceptance: replaying a coherence block on the
    array backend moves `received` up and the results down — zero
    context bytes.  Measured with a transfer-counting module wrapped
    around the configured array module (a "fake device" over numpy by
    default), and recorded so ``BENCH_runtime.json`` tracks warm vs cold
    upload volume per block.
    """
    from repro.runtime import (
        ArrayBackend,
        ContextCache,
        CountingArrayModule,
        DetectionService,
        UplinkBatch,
    )
    from repro.utils.xp import default_array_module

    system, channels, received, noise_var = workload
    detector = build_stack(reference_config()).detector
    module = CountingArrayModule(default_array_module())
    # A metering module is a live object, not a config value: drive the
    # service the stack would, with a hand-held cache.
    service = DetectionService(ArrayBackend(array_module=module))
    batch = UplinkBatch(channels, received, noise_var)
    cache = ContextCache()

    cold = service.detect(detector, batch, cache=cache)
    warm = service.detect(detector, batch, cache=cache)
    cold_transfers = cold.stats["transfers"]
    warm_transfers = warm.stats["transfers"]
    warm_context_bytes = warm_transfers.upload_bytes - received.nbytes

    print(
        f"\ncold uploads {cold_transfers.upload_bytes / 1e6:.1f} MB, warm "
        f"uploads {warm_transfers.upload_bytes / 1e6:.1f} MB "
        f"(received alone is {received.nbytes / 1e6:.1f} MB)"
    )
    record_bench(
        "array_backend_warm_vs_cold_uploads",
        {
            "backend": "array",
            "array_module": module.name,
            "cold_upload_bytes": cold_transfers.upload_bytes,
            "cold_uploads": cold_transfers.uploads,
            "warm_upload_bytes": warm_transfers.upload_bytes,
            "warm_uploads": warm_transfers.uploads,
            "warm_context_upload_bytes": warm_context_bytes,
            "received_bytes": received.nbytes,
            "download_bytes": warm_transfers.download_bytes,
        },
    )
    # Cold pass ships the stacked contexts; the warm pass must not.
    assert cold_transfers.upload_bytes > received.nbytes
    assert warm_transfers.uploads == 1
    assert warm_context_bytes == 0, (
        f"warm path re-uploaded {warm_context_bytes} context bytes"
    )
    assert warm.stats["resident"].misses == 0


def test_warm_cache_amortises_prepare(workload):
    """Replaying a coherence block must skip every prepare.

    The cache stats are the contract; the timing check is best-of-3 with
    a small noise allowance because the batched cold path shrank the
    prepare share of a cold block from ~1/3 to a few percent — warm and
    cold wall times are close by design now.
    """
    system, channels, received, noise_var = workload
    engine = build_stack(reference_config())
    cold_s = float("inf")
    warm_s = float("inf")
    for _ in range(3):
        engine.clear_cache()
        start = time.perf_counter()
        engine.detect_batch(channels, received, noise_var)
        cold_s = min(cold_s, time.perf_counter() - start)
        start = time.perf_counter()
        warm = engine.detect_batch(channels, received, noise_var)
        warm_s = min(warm_s, time.perf_counter() - start)
    assert warm.stats["cache"].misses == 0
    assert warm.stats["cache"].hits == NUM_SUBCARRIERS
    print(
        f"\ncold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms "
        f"({cold_s / warm_s:.1f}x)"
    )
    assert warm_s < cold_s * 1.05


def test_bench_engine_batch(benchmark, workload):
    system, channels, received, noise_var = workload
    engine = build_stack(reference_config())

    def run():
        return engine.detect_batch(channels, received, noise_var)

    result = benchmark(run)
    assert result.indices.shape == (NUM_SUBCARRIERS, NUM_FRAMES, 8)


def test_bench_per_vector_loop(benchmark, workload):
    system, channels, received, noise_var = workload
    detector = build_stack(reference_config()).detector
    # Benchmark one subcarrier's worth (the full loop is what the
    # speedup assertion times); scale: x NUM_SUBCARRIERS for the block.
    result = benchmark(
        naive_per_vector, detector, channels[:1], received[:1], noise_var
    )
    assert result.shape == (1, NUM_FRAMES, 8)
