"""Small argument-validation helpers raising :mod:`repro.errors` types."""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, ConstellationError


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a positive integer, else raise."""
    if not isinstance(value, (int,)) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_square_qam_order(order: int) -> int:
    """Validate a square-QAM constellation order (4, 16, 64, 256, ...)."""
    check_positive_int(order, "constellation order")
    side = math.isqrt(order)
    if side * side != order or side < 2 or (side & (side - 1)):
        raise ConstellationError(
            f"square QAM requires order m^2 with m a power of two >= 2, got {order}"
        )
    return order
