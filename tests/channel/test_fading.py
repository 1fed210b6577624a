"""Tests for fading channel models."""

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channel, rayleigh_channels


class TestRayleigh:
    def test_shape(self):
        assert rayleigh_channel(4, 2, rng=0).shape == (4, 2)
        assert rayleigh_channels(10, 4, 2, rng=0).shape == (10, 4, 2)

    def test_unit_average_power(self):
        channels = rayleigh_channels(2000, 4, 4, rng=1)
        power = np.mean(np.abs(channels) ** 2)
        assert power == pytest.approx(1.0, rel=0.05)

    def test_zero_mean(self):
        channels = rayleigh_channels(2000, 2, 2, rng=2)
        assert abs(np.mean(channels)) < 0.05

    def test_real_imag_balance(self):
        channels = rayleigh_channels(4000, 2, 2, rng=3)
        assert np.var(channels.real) == pytest.approx(0.5, rel=0.1)
        assert np.var(channels.imag) == pytest.approx(0.5, rel=0.1)

    def test_deterministic_with_seed(self):
        assert np.array_equal(
            rayleigh_channel(3, 3, rng=9), rayleigh_channel(3, 3, rng=9)
        )
