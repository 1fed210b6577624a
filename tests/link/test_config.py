"""Tests for link configuration arithmetic."""

import pytest

from repro.errors import ConfigurationError
from repro.link.config import LinkConfig
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation


class TestLinkConfig:
    def test_coded_bits_per_packet(self):
        system = MimoSystem(8, 8, QamConstellation(16))
        config = LinkConfig(system=system, ofdm_symbols_per_packet=4)
        assert config.coded_bits_per_packet == 48 * 4 * 4
        assert config.interleaver_block == 48 * 4

    def test_info_bits_rate_half(self):
        system = MimoSystem(8, 8, QamConstellation(64))
        config = LinkConfig(system=system, ofdm_symbols_per_packet=2)
        coded = 48 * 6 * 2
        assert config.info_bits_per_packet == coded // 2 - 6

    def test_info_bits_rate_three_quarters(self):
        system = MimoSystem(4, 4, QamConstellation(64))
        config = LinkConfig(
            system=system, code_rate="3/4", ofdm_symbols_per_packet=2
        )
        coded = 48 * 6 * 2  # post-puncturing bits on air
        mother = coded * 6 // 4  # the 3/4 pattern keeps 4 bits per 6
        assert config.info_bits_per_packet == mother // 2 - 6

    def test_one_read_only_code_for_every_config(self):
        """Every packet of every config encodes and decodes with the same
        code object; its tables cannot be changed under a shared user."""
        small = LinkConfig(system=MimoSystem(2, 2, QamConstellation(4)))
        large = LinkConfig(system=MimoSystem(8, 8, QamConstellation(64)), code_rate="3/4")
        assert small.code is small.code is large.code
        for table in (small.code.next_state, small.code.output_bits):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_subcarrier_restriction(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        config = LinkConfig(system=system, num_subcarriers=12)
        assert config.subcarriers_used == 12
        assert config.interleaver_block == 48

    def test_user_rates_match_paper(self):
        for order, rate_mbps in ((16, 24.0), (64, 36.0)):
            system = MimoSystem(8, 8, QamConstellation(order))
            config = LinkConfig(system=system)
            assert config.user_phy_rate_bps / 1e6 == pytest.approx(rate_mbps)

    def test_zero_symbols_rejected(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        with pytest.raises(ConfigurationError):
            LinkConfig(system=system, ofdm_symbols_per_packet=0)
