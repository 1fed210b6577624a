"""802.11-style channel coding: convolutional code, Viterbi, interleaving."""

from repro.coding.convolutional import ConvolutionalCode
from repro.coding.interleaver import BlockInterleaver
from repro.coding.puncturing import PUNCTURE_PATTERNS, Puncturer
from repro.coding.viterbi import ViterbiDecoder

__all__ = [
    "BlockInterleaver",
    "ConvolutionalCode",
    "PUNCTURE_PATTERNS",
    "Puncturer",
    "ViterbiDecoder",
]
