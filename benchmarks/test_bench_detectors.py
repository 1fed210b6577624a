"""Detection-kernel throughput benches (12x12 64-QAM, 192 vectors).

Not a paper artefact per se, but the foundation under Figs. 9-12: the
relative per-vector cost of each scheme at a fixed batch size.
"""


from repro.detectors.fcsd import FcsdDetector
from repro.detectors.linear import MmseDetector
from repro.detectors.sphere import SphereDecoder
from repro.detectors.trellis import TrellisDetector
from repro.flexcore.detector import FlexCoreDetector


def _bench_detect(benchmark, detector, detection_batch, rounds=3):
    channel, received, noise_var = detection_batch
    context = detector.prepare(channel, noise_var)
    result = benchmark.pedantic(
        detector.detect_prepared,
        args=(context, received),
        rounds=rounds,
        iterations=1,
    )
    assert result.indices.shape == received.shape


def test_mmse_kernel(benchmark, system_12x12_64qam, detection_batch):
    _bench_detect(
        benchmark, MmseDetector(system_12x12_64qam), detection_batch
    )


def test_flexcore_64_paths_kernel(benchmark, system_12x12_64qam, detection_batch):
    _bench_detect(
        benchmark,
        FlexCoreDetector(system_12x12_64qam, num_paths=64),
        detection_batch,
    )


def test_flexcore_196_paths_kernel(benchmark, system_12x12_64qam, detection_batch):
    _bench_detect(
        benchmark,
        FlexCoreDetector(system_12x12_64qam, num_paths=196),
        detection_batch,
    )


def test_fcsd_l1_kernel(benchmark, system_12x12_64qam, detection_batch):
    _bench_detect(
        benchmark,
        FcsdDetector(system_12x12_64qam, num_expanded=1),
        detection_batch,
    )


def test_trellis_kernel(benchmark, system_12x12_64qam, detection_batch):
    _bench_detect(
        benchmark, TrellisDetector(system_12x12_64qam), detection_batch
    )


def test_sphere_decoder_kernel(benchmark, system_12x12_64qam, detection_batch):
    """Exact ML reference; the sequential baseline FlexCore parallelises."""
    channel, received, noise_var = detection_batch
    decoder = SphereDecoder(system_12x12_64qam)
    context = decoder.prepare(channel, noise_var)
    subset = received[:24]  # keep the sequential search affordable
    result = benchmark.pedantic(
        decoder.detect_prepared, args=(context, subset), rounds=2, iterations=1
    )
    assert result.indices.shape == subset.shape
