"""Ablation benches: each FlexCore design choice, switched alone."""


from repro.experiments import ablations
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.ordering import TriangleOrdering
from repro.modulation.constellation import QamConstellation


def test_lut_ordering_kernel(benchmark, system_12x12_64qam, detection_batch):
    """Triangle LUT: the cheap path (no per-level sorting)."""
    channel, received, noise_var = detection_batch
    detector = FlexCoreDetector(system_12x12_64qam, num_paths=64)
    context = detector.prepare(channel, noise_var)
    benchmark.pedantic(
        detector.detect_prepared, args=(context, received), rounds=3,
        iterations=1,
    )


def test_exact_ordering_kernel(benchmark, system_12x12_64qam, detection_batch):
    """Exact sorting ablation: what the LUT saves."""
    channel, received, noise_var = detection_batch
    detector = FlexCoreDetector(
        system_12x12_64qam, num_paths=64, use_exact_ordering=True
    )
    context = detector.prepare(channel, noise_var)
    benchmark.pedantic(
        detector.detect_prepared, args=(context, received), rounds=3,
        iterations=1,
    )


def test_lut_construction_centroid(benchmark):
    benchmark(TriangleOrdering, QamConstellation(64))


def test_lut_construction_montecarlo(benchmark):
    benchmark.pedantic(
        TriangleOrdering,
        args=(QamConstellation(64),),
        kwargs={"method": "montecarlo", "samples": 2000, "rng": 0},
        rounds=2,
        iterations=1,
    )


def test_ablation_study_regeneration(benchmark, tiny_profile):
    result = benchmark.pedantic(
        ablations.run, args=(tiny_profile,), rounds=1, iterations=1
    )
    assert len(result.rows) >= 8
