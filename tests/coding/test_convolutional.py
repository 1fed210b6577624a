"""Tests for the 802.11 convolutional encoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.convolutional import ConvolutionalCode
from repro.errors import ConfigurationError, DimensionError
from tests.reference.convolutional import encode_bit_by_bit


@pytest.fixture(scope="module")
def code():
    return ConvolutionalCode()


class TestStructure:
    def test_default_is_wifi_code(self, code):
        assert code.generators == (0o133, 0o171)
        assert code.constraint_length == 7
        assert code.num_states == 64
        assert code.rate_inverse == 2
        assert code.tail_bits == 6

    def test_next_state_table_shape(self, code):
        assert code.next_state.shape == (64, 2)
        assert code.output_bits.shape == (64, 2, 2)

    def test_trellis_is_connected(self, code):
        # Every state must be reachable from exactly two predecessors.
        counts = np.zeros(64, dtype=int)
        for state in range(64):
            for bit in (0, 1):
                counts[code.next_state[state, bit]] += 1
        assert (counts == 2).all()

    def test_invalid_generators_raise(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalCode(generators=(0o400,), constraint_length=7)

    def test_invalid_constraint_length(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalCode(constraint_length=1)


class TestEncoding:
    def test_known_first_outputs(self, code):
        # Input bit 1 from state 0: register 1000000; g0=133o=1011011b
        # taps the MSB -> both generators see only the new bit.
        coded = code.encode(np.array([1]), terminate=False)
        assert coded.tolist() == [1, 1]

    def test_all_zero_input_gives_all_zero_output(self, code):
        coded = code.encode(np.zeros(20, dtype=np.uint8))
        assert not coded.any()

    def test_coded_length(self, code):
        bits = np.ones(10, dtype=np.uint8)
        assert code.encode(bits).size == code.coded_length(10) == 32
        assert code.encode(bits, terminate=False).size == 20

    def test_termination_returns_to_zero_state(self, code):
        # Encoding [data + tail] then continuing with zeros must produce
        # the zero sequence (i.e. encoder is back at state 0).
        data = np.array([1, 0, 1, 1, 0, 1, 1, 1], dtype=np.uint8)
        padded = np.concatenate(
            [data, np.zeros(6, dtype=np.uint8), np.zeros(4, dtype=np.uint8)]
        )
        coded = code.encode(padded, terminate=False)
        assert not coded[-8:].any()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        """Convolutional codes are linear: enc(a^b) = enc(a)^enc(b)."""
        code = ConvolutionalCode()
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, 40).astype(np.uint8)
        b = rng.integers(0, 2, 40).astype(np.uint8)
        lhs = code.encode(a ^ b, terminate=False)
        rhs = code.encode(a, terminate=False) ^ code.encode(b, terminate=False)
        assert np.array_equal(lhs, rhs)

    def test_non_binary_input_raises(self, code):
        with pytest.raises(DimensionError):
            code.encode(np.array([0, 2, 1]))
        with pytest.raises(DimensionError):
            code.encode(np.array([[0, 1], [1, 2]]))


@st.composite
def codes(draw):
    """A code of constraint length 3-9 with one to three random generators."""
    length = draw(st.integers(3, 9))
    generators = draw(st.lists(st.integers(1, 2**length - 1), min_size=1, max_size=3))
    return ConvolutionalCode(tuple(generators), length)


class TestAgainstTheBitByBitEncoder:
    """The vectorised encoder is the trellis walked one bit at a time
    (``tests/reference/convolutional.py``), for any code, length and
    termination, and a ``(rows, n)`` call is each row's own call."""

    @given(codes(), st.integers(0, 300), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_one_vector(self, code, length, terminate, seed):
        bits = np.random.default_rng(seed).integers(0, 2, length).astype(np.uint8)
        coded = code.encode(bits, terminate)
        assert coded.dtype == np.uint8
        assert np.array_equal(coded, encode_bit_by_bit(code, bits, terminate))
        assert coded.size == code.coded_length(length, terminate)

    @given(codes(), st.integers(0, 5), st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_encoded_each_on_its_own(self, code, rows, length, seed):
        bits = np.random.default_rng(seed).integers(0, 2, (rows, length)).astype(np.uint8)
        coded = code.encode(bits)
        assert coded.shape == (rows, code.coded_length(length))
        for row, expected in zip(coded, bits):
            assert np.array_equal(row, encode_bit_by_bit(code, expected))
