"""Square M-QAM constellations with Gray labelling, mapping and slicing."""

from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices

__all__ = [
    "QamConstellation",
    "random_symbol_indices",
]
