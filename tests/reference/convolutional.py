"""Frozen reference: the convolutional encoder one bit at a time.

:func:`encode_bit_by_bit` walks the code's trellis tables
(``ConvolutionalCode.next_state`` / ``output_bits``) over one bit vector,
the way the encoder ran before it was vectorised.  Kept *as an oracle,
not a second implementation*: nothing under ``src/`` imports it, it is
never optimised, and the tests pin
:meth:`repro.coding.convolutional.ConvolutionalCode.encode` to it.
"""

from __future__ import annotations

import numpy as np

from repro.coding.convolutional import ConvolutionalCode


def encode_bit_by_bit(code: ConvolutionalCode, bits, terminate: bool = True) -> np.ndarray:
    """``code``'s output for the bit vector ``bits``: per input bit, the
    ``output_bits`` of the current state, then its ``next_state``."""
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if terminate:
        bits = np.concatenate([bits, np.zeros(code.tail_bits, dtype=np.uint8)])
    coded = np.empty(bits.size * code.rate_inverse, dtype=np.uint8)
    state, n_out = 0, code.rate_inverse
    for position, bit in enumerate(bits):
        coded[position * n_out : (position + 1) * n_out] = code.output_bits[state, bit]
        state = code.next_state[state, bit]
    return coded
