"""Shared low-level helpers: bit manipulation, FLOP accounting, validation."""

from repro.utils.bits import (
    bits_to_ints,
    gray_decode,
    gray_encode,
    hamming_distance,
    int_to_bits,
    ints_to_bits,
)
from repro.utils.flops import NULL_COUNTER, FlopCounter
from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_positive_int,
    check_square_qam_order,
)

__all__ = [
    "FlopCounter",
    "NULL_COUNTER",
    "as_rng",
    "bits_to_ints",
    "check_positive_int",
    "check_square_qam_order",
    "gray_decode",
    "gray_encode",
    "hamming_distance",
    "int_to_bits",
    "ints_to_bits",
]
