"""Tests for SNR-loss tables (the Fig. 12 algorithmic input)."""

import numpy as np
import pytest

from repro.experiments.common import PROFILES
from repro.experiments.linkruns import LINK_STACK_CONFIG
from repro.experiments.snr_loss import SnrLossTable, build_snr_loss_table
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation

TINY = PROFILES["quick"].scaled(0.25)


class TestInterpolation:
    @pytest.fixture(scope="class")
    def table(self):
        return SnrLossTable(
            path_counts=np.array([1.0, 4.0, 16.0, 64.0]),
            losses_db=np.array([9.0, 5.0, 2.0, 0.5]),
            ml_snr_db=20.0,
        )

    def test_exact_grid_points(self, table):
        assert table.loss_for_paths(4) == pytest.approx(5.0)
        assert table.loss_for_paths(64) == pytest.approx(0.5)

    def test_log_interpolation_between_points(self, table):
        mid = table.loss_for_paths(8)  # halfway in log2 between 4 and 16
        assert mid == pytest.approx(3.5)

    def test_clamped_outside_grid(self, table):
        assert table.loss_for_paths(0) == pytest.approx(9.0)
        assert table.loss_for_paths(1024) == pytest.approx(0.5)


class TestBuild:
    def test_build_produces_monotone_losses(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        table = build_snr_loss_table(
            system, 0.1, TINY, LINK_STACK_CONFIG, path_grid=(1, 8, 64)
        )
        assert table.losses_db[0] >= table.losses_db[-1] - 0.5
        assert (table.losses_db >= 0).all()
        assert table.ml_snr_db < 40.0
