"""Tests for argument validation helpers."""

import pytest

from repro.errors import ConfigurationError, ConstellationError
from repro.utils.validation import (
    check_positive_int,
    check_square_qam_order,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(5, "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "3"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive_int(bad, "x")


class TestCheckSquareQam:
    @pytest.mark.parametrize("good", [4, 16, 64, 256, 1024])
    def test_accepts(self, good):
        assert check_square_qam_order(good) == good

    @pytest.mark.parametrize("bad", [2, 8, 32, 128, 9, 36])
    def test_rejects(self, bad):
        with pytest.raises(ConstellationError):
            check_square_qam_order(bad)
