"""Dense-constellation behaviour (§3.1.1's 256-QAM discussion)."""

import numpy as np
import pytest

from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.ordering import TriangleOrdering
from repro.flexcore.probability import LevelErrorModel
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from tests.conftest import random_link
from tests.reference.path_search import find_promising_paths


@pytest.fixture(scope="module")
def qam256():
    return QamConstellation(256)


class TestConstellation256:
    def test_geometry(self, qam256):
        assert qam256.side == 16
        assert qam256.bits_per_symbol == 8
        assert np.mean(np.abs(qam256.points) ** 2) == pytest.approx(1.0)

    def test_lut_covers_constellation(self, qam256):
        lut = TriangleOrdering(qam256)
        assert lut.max_rank >= 256
        order = lut.order_for_point(0.05 + 0.02j)
        assert sorted(order.tolist()) == list(range(256))

    def test_lut_rank_one_exact(self, qam256, rng):
        lut = TriangleOrdering(qam256)
        z = 1.2 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        first = lut.kth_symbol_indices(z, np.ones(200, dtype=int))
        for value, index in zip(z, first):
            exact = qam256.exact_order(value)[0]
            assert abs(qam256.points[index] - value) == pytest.approx(
                abs(qam256.points[exact] - value), abs=1e-12
            )


class TestDensePreprocessing:
    def test_large_path_budget(self):
        """Dense constellations need many paths (§3.1.1) — must scale."""
        model = LevelErrorModel(pe=np.full(4, 0.35))
        result = find_promising_paths(model, 1024, 256)
        assert result.position_vectors.shape == (1024, 4)
        assert np.unique(result.position_vectors, axis=0).shape[0] == 1024

    def test_parallel_expansion_for_dense_case(self):
        """N_PE/B >= 10 keeps the captured mass close to sequential."""
        model = LevelErrorModel(pe=np.array([0.45, 0.3, 0.25, 0.4]))
        sequential = find_promising_paths(model, 500, 256, batch_size=1)
        parallel = find_promising_paths(model, 500, 256, batch_size=50)
        ratio = (
            parallel.cumulative_probability
            / sequential.cumulative_probability
        )
        assert ratio > 0.97


class TestDenseDetection:
    def test_flexcore_detects_256qam(self, rng):
        system = MimoSystem(4, 4, QamConstellation(256))
        channel, indices, received, noise_var = random_link(
            system, 26.0, 20, rng
        )
        detector = FlexCoreDetector(system, num_paths=64)
        result = detector.detect(channel, received, noise_var)
        errors = np.count_nonzero((result.indices != indices).any(axis=1))
        assert errors <= 6

    def test_noiseless_exact(self, rng):
        system = MimoSystem(3, 3, QamConstellation(256))
        channel, indices, received, _ = random_link(system, 200.0, 10, rng)
        result = FlexCoreDetector(system, num_paths=8).detect(
            channel, received, 1e-18
        )
        assert np.array_equal(result.indices, indices)
