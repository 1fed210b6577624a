"""Tests for OFDM grid parameters."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ofdm.params import WIFI_20MHZ, OfdmParams


class TestWifiGrid:
    def test_symbol_duration_is_4us(self):
        assert WIFI_20MHZ.symbol_duration_s == pytest.approx(4e-6)

    def test_data_tone_count(self):
        assert WIFI_20MHZ.data_subcarrier_indices.size == 48

    def test_dc_and_pilots_excluded(self):
        tones = WIFI_20MHZ.data_subcarrier_indices
        assert 0 not in tones  # DC
        for pilot in (7, 21, 64 - 7, 64 - 21):
            assert pilot not in tones

    def test_user_rates_match_paper(self):
        # 16-QAM r=1/2 -> 24 Mb/s, 64-QAM r=1/2 -> 36 Mb/s per user.
        assert WIFI_20MHZ.user_bit_rate(4, 0.5) == pytest.approx(24e6)
        assert WIFI_20MHZ.user_bit_rate(6, 0.5) == pytest.approx(36e6)


class TestValidation:
    def test_non_power_of_two_fft_raises(self):
        with pytest.raises(ConfigurationError):
            OfdmParams(fft_size=60)

    def test_too_many_data_tones_raise(self):
        with pytest.raises(ConfigurationError):
            OfdmParams(fft_size=64, num_data_subcarriers=65)

    def test_bad_prefix_raises(self):
        with pytest.raises(ConfigurationError):
            OfdmParams(cyclic_prefix=64)

    def test_custom_grid_tone_count(self):
        params = OfdmParams(fft_size=128, num_data_subcarriers=100)
        assert params.data_subcarrier_indices.size == 100
        assert np.unique(params.data_subcarrier_indices).size == 100


class TestNumerologyScales:
    """802.11 numerology: the sample period is one over the bandwidth,
    so the symbol stretches as the channel narrows; doubling the FFT
    with the bandwidth keeps the 4 µs symbol."""

    @pytest.mark.parametrize(
        "bandwidth_hz, fft_size, prefix, symbol_s",
        [(5e6, 64, 16, 16e-6), (10e6, 64, 16, 8e-6), (20e6, 64, 16, 4e-6), (40e6, 128, 32, 4e-6)],
        ids=["5MHz", "10MHz", "20MHz", "40MHz"],
    )
    def test_symbol_duration_and_rate(self, bandwidth_hz, fft_size, prefix, symbol_s):
        params = OfdmParams(fft_size, 48, prefix, bandwidth_hz)
        assert params.sample_period_s == pytest.approx(1.0 / bandwidth_hz)
        assert params.symbol_duration_s == pytest.approx(symbol_s)
        # 48 data tones of 16-QAM at rate 1/2 per symbol.
        assert params.user_bit_rate(4, 0.5) == pytest.approx(96 / symbol_s)
