"""Structural tests for the fleet (multi-process farm) experiment.

Scaling magnitudes belong to flexbench
(``farm.scaling_2w_over_1w``); here we pin the experiment's
structure — one scale row per worker count, a kill-recovery row whose
restart is recorded, exact frame accounting, and the config-first
plumbing (the embedded ``config`` reproduces the fleet) — with
assertions that cannot flake on a loaded machine.
"""

from dataclasses import replace

import pytest

from repro.api import StackConfig
from repro.errors import ExperimentError
from repro.experiments import fleet
from repro.experiments.common import get_profile

TINY = get_profile("quick").scaled(0.5)


class TestFleetExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        config = fleet.FLEET_STACK_CONFIG
        two_cells = replace(config, farm=replace(config.farm, cells=2))
        return fleet.run(TINY, workers=2, stack_config=two_cells)

    def test_scale_rows_then_kill_recovery(self, result):
        assert [row["mode"] for row in result.rows] == [
            "scale",
            "scale",
            "kill-recovery",
        ]
        assert [row["workers"] for row in result.rows] == [1, 2, 2]

    def test_offered_load_invariant_under_workers(self, result):
        assert len({row["frames_offered"] for row in result.rows}) == 1

    def test_every_frame_accounted(self, result):
        for row in result.rows:
            assert row["frames_detected"] <= row["frames_offered"]
        reports = [
            result.runtime["fleet_1_workers"],
            result.runtime["fleet_2_workers"],
            result.runtime["fleet_kill_recovery"],
        ]
        for report in reports:
            assert report["scheduler"]["frames_missing"] == 0

    def test_kill_recovery_recorded(self, result):
        kill_row = result.rows[-1]
        assert kill_row["restarts"] >= 1
        report = result.runtime["fleet_kill_recovery"]
        assert report["restarts"][0]["worker"] == 0
        assert report["restarts"][0]["reason"] == "died"

    def test_embedded_config_reproduces_the_fleet(self, result):
        config = StackConfig.from_dict(result.config)
        assert config.farm.streaming
        assert config.governor.total_path_budget is not None

    def test_rejects_more_workers_than_cells(self):
        with pytest.raises(ExperimentError, match="cells"):
            fleet.run(TINY, workers=5)

    def test_rejects_batch_config(self):
        with pytest.raises(ExperimentError, match="streaming"):
            fleet.run(
                TINY,
                workers=1,
                stack_config=StackConfig(),
            )
