"""OFDM framing: the 802.11 64-subcarrier grid and LTE mode parameters."""

from repro.ofdm.lte import (
    FRAME_DURATION_S,
    LTE_MODES,
    SLOT_DURATION_S,
    SLOTS_PER_FRAME,
    SYMBOLS_PER_SLOT,
    LteMode,
    lte_mode,
    slot_deadline,
)
from repro.ofdm.params import WIFI_20MHZ, OfdmParams

__all__ = [
    "FRAME_DURATION_S",
    "LTE_MODES",
    "LteMode",
    "OfdmParams",
    "SLOT_DURATION_S",
    "SLOTS_PER_FRAME",
    "SYMBOLS_PER_SLOT",
    "WIFI_20MHZ",
    "lte_mode",
    "slot_deadline",
]
