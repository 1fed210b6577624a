"""Rate-1/2 convolutional encoder used by 802.11 (K=7, g = 133/171 octal).

The paper's throughput evaluation transmits "1/2 rate convolutional coding of
the 802.11 standard" (§5.1); higher rates are derived by puncturing
(:mod:`repro.coding.puncturing`).

State convention: the encoder register is a 7-bit word whose MSB is the
*current* input bit; the 6-bit state holds the previous six inputs.  The two
output bits per input bit are the parities of the register masked by the
generators, emitted g0-first.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DimensionError


def _parity_table() -> np.ndarray:
    """Parity of every 7-bit word, as a uint8 lookup table."""
    words = np.arange(128, dtype=np.uint8)
    parity = words.copy()
    for shift in (4, 2, 1):
        parity ^= parity >> shift
    return parity & 1


_PARITY = _parity_table()


class ConvolutionalCode:
    """Binary convolutional code with arbitrary generators (default 802.11).

    Parameters
    ----------
    generators:
        Octal-style generator integers; default ``(0o133, 0o171)`` is the
        industry-standard K=7 code.
    constraint_length:
        ``K``; the encoder has ``2**(K-1)`` states.
    """

    def __init__(
        self,
        generators: tuple[int, ...] = (0o133, 0o171),
        constraint_length: int = 7,
    ):
        if constraint_length < 2 or constraint_length > 16:
            raise ConfigurationError(
                f"constraint length {constraint_length} outside supported range"
            )
        limit = 1 << constraint_length
        for gen in generators:
            if not 0 < gen < limit:
                raise ConfigurationError(
                    f"generator {gen:o} does not fit constraint length "
                    f"{constraint_length}"
                )
        self.generators = tuple(int(g) for g in generators)
        self.constraint_length = int(constraint_length)
        self.num_states = 1 << (constraint_length - 1)
        self.rate_inverse = len(self.generators)
        self._build_tables()

    def _build_tables(self) -> None:
        """Precompute next-state and output tables for every (state, bit)."""
        states = np.arange(self.num_states)
        self.next_state = np.empty((self.num_states, 2), dtype=np.int64)
        self.output_bits = np.empty(
            (self.num_states, 2, self.rate_inverse), dtype=np.uint8
        )
        msb_shift = self.constraint_length - 1
        for bit in (0, 1):
            register = (bit << msb_shift) | states
            self.next_state[:, bit] = register >> 1
            for g_index, gen in enumerate(self.generators):
                masked = register & gen
                self.output_bits[:, bit, g_index] = _bit_parity(masked)
        # Read-only, so one code can serve every link that shares it.
        self.next_state.setflags(write=False)
        self.output_bits.setflags(write=False)

    @property
    def tail_bits(self) -> int:
        """Number of zero bits appended to return the encoder to state 0."""
        return self.constraint_length - 1

    def encode(self, bits: np.ndarray, terminate: bool = True) -> np.ndarray:
        """Encode an information bit vector.

        With ``terminate=True`` (the default, and what 802.11 does) the
        encoder appends ``K-1`` flush zeros so the trellis ends in state 0;
        the output then has ``(len(bits) + K - 1) * rate_inverse`` bits.
        """
        bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
        if bits.size and bits.max() > 1:
            raise DimensionError("encode expects a binary array")
        if terminate:
            bits = np.concatenate(
                [bits, np.zeros(self.tail_bits, dtype=np.uint8)]
            )
        coded = np.empty(bits.size * self.rate_inverse, dtype=np.uint8)
        state = 0
        n_out = self.rate_inverse
        next_state = self.next_state
        output_bits = self.output_bits
        for position, bit in enumerate(bits):
            coded[position * n_out : (position + 1) * n_out] = output_bits[
                state, bit
            ]
            state = next_state[state, bit]
        return coded

    def coded_length(self, num_info_bits: int, terminate: bool = True) -> int:
        """Coded bits produced for ``num_info_bits`` information bits."""
        total = num_info_bits + (self.tail_bits if terminate else 0)
        return total * self.rate_inverse


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of arbitrary-width non-negative integers, vectorised."""
    values = np.asarray(values, dtype=np.int64)
    parity = np.zeros(values.shape, dtype=np.uint8)
    remaining = values.copy()
    while remaining.any():
        parity ^= (remaining & 1).astype(np.uint8)
        remaining >>= 1
    return parity
