"""Tests for random transmit-symbol indices."""

import numpy as np

from repro.modulation.mapper import random_symbol_indices


class TestRandomIndices:
    def test_range_and_shape(self, qam16):
        indices = random_symbol_indices(100, 6, qam16, rng=0)
        assert indices.shape == (100, 6)
        assert indices.min() >= 0
        assert indices.max() < 16

    def test_deterministic_with_seed(self, qam16):
        a = random_symbol_indices(50, 2, qam16, rng=7)
        b = random_symbol_indices(50, 2, qam16, rng=7)
        assert np.array_equal(a, b)
