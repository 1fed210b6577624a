"""Link-simulation configuration.

A *packet* here is one user's coded transmission spanning
``ofdm_symbols_per_packet`` OFDM symbols over the data subcarriers — a
scaled-down version of the paper's 500-kByte packets (the full size is a
``packets x symbols`` product; shrinking the packet keeps the PER ->
throughput mapping while making Monte-Carlo tractable: a PER point
takes hundreds of packets).  The channel stays static over a packet, as in §5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coding import ConvolutionalCode, Puncturer
from repro.errors import ConfigurationError
from repro.mimo.system import MimoSystem
from repro.ofdm.params import WIFI_20MHZ, OfdmParams


#: The 802.11 K=7 mother code: one per process, read-only tables.
_CODE = ConvolutionalCode()


@dataclass(frozen=True)
class LinkConfig:
    """Static parameters of a coded MU-MIMO uplink simulation."""

    system: MimoSystem
    ofdm: OfdmParams = WIFI_20MHZ
    code_rate: str = "1/2"
    ofdm_symbols_per_packet: int = 4
    num_subcarriers: int | None = None  # default: all data subcarriers

    def __post_init__(self) -> None:
        if self.ofdm_symbols_per_packet <= 0:
            raise ConfigurationError("need at least one OFDM symbol")
        if self.subcarriers_used <= 0:
            raise ConfigurationError("need at least one subcarrier")
        if self.info_bits_per_packet <= 0:
            raise ConfigurationError(
                "packet too short for the code tail; increase symbols"
            )

    @property
    def subcarriers_used(self) -> int:
        if self.num_subcarriers is None:
            return self.ofdm.num_data_subcarriers
        return min(self.num_subcarriers, self.ofdm.num_data_subcarriers)

    @property
    def puncturer(self) -> Puncturer:
        return Puncturer(self.code_rate)

    @property
    def code(self) -> ConvolutionalCode:
        return _CODE

    @property
    def coded_bits_per_packet(self) -> int:
        """Post-puncturing coded bits one user sends per packet."""
        return (
            self.subcarriers_used
            * self.system.constellation.bits_per_symbol
            * self.ofdm_symbols_per_packet
        )

    @property
    def interleaver_block(self) -> int:
        """Coded bits per user per OFDM symbol (``N_cbps``)."""
        return (
            self.subcarriers_used * self.system.constellation.bits_per_symbol
        )

    @property
    def info_bits_per_packet(self) -> int:
        """Information bits per user per packet (tail deducted)."""
        puncturer = self.puncturer
        period = puncturer.pattern.size
        kept = int(puncturer.pattern.sum())
        coded = self.coded_bits_per_packet
        if coded % kept != 0:
            raise ConfigurationError(
                f"coded bits {coded} not compatible with rate "
                f"{self.code_rate} puncturing"
            )
        mother = coded // kept * period
        if mother % 2 != 0:
            raise ConfigurationError("mother code length must be even")
        return mother // 2 - self.code.tail_bits

    @property
    def user_phy_rate_bps(self) -> float:
        """Per-user PHY rate at full OFDM occupancy (paper's rate axis)."""
        return self.ofdm.user_bit_rate(
            self.system.constellation.bits_per_symbol, self.puncturer.rate
        )
