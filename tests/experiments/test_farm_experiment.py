"""Structural tests for the governed-farm experiment's config wiring.

Timing outcomes (hit-rates under overload) belong to the benchmark and
CI smoke lanes; here we pin the config-first plumbing — the effective
:class:`repro.api.StackConfig` is honoured, embedded, and parseable —
with structural assertions that cannot flake on a loaded machine.
"""

import inspect
from dataclasses import replace

import pytest

from repro.api import DetectorSpec, StackConfig, presets
from repro.errors import ExperimentError
from repro.experiments import farm
from repro.experiments.common import get_profile
from repro.experiments.runner import main as runner_main

TINY = get_profile("quick").scaled(0.5)


class TestFarmExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return farm.run(TINY, stack_config=presets.get("farm-overload"))

    def test_two_modes_tabulated(self, result):
        assert [row["mode"] for row in result.rows] == [
            "ungoverned",
            "governed",
        ]
        assert result.rows[1]["policy"] == "aimd"

    def test_offered_load_identical(self, result):
        offered = {row["frames_offered"] for row in result.rows}
        assert len(offered) == 1

    def test_runtime_telemetry_recorded(self, result):
        assert "scheduler_ungoverned" in result.runtime
        assert "scheduler_governed" in result.runtime
        assert "governor" in result.runtime
        assert result.runtime["governor"]["policy"] == "aimd"

    def test_embeds_exact_preset_config(self, result):
        config = StackConfig.from_dict(result.config)
        assert config == presets.get("farm-overload")
        assert config.detector.params["num_paths"] == 128

    def test_default_config_is_the_preset(self):
        """With no config the experiment runs the farm-overload farm."""
        default = inspect.signature(farm.run).parameters["stack_config"].default
        assert default == presets.get("farm-overload")

    def test_ungoverned_config_rejected(self):
        config = replace(presets.get("farm-overload"), governor=None)
        with pytest.raises(ExperimentError, match="governor"):
            farm.run(TINY, stack_config=config)

    def test_ungoverned_budget_reports_detector_paths(self):
        """A detector below the governor's ceiling: the baseline row
        must report the paths it actually ran, not paths_max."""
        base = presets.get("farm-overload")
        config = replace(
            base,
            detector=DetectorSpec(
                "flexcore", 8, 8, 16, params={"num_paths": 64}
            ),
        )
        result = farm.run(TINY, stack_config=config)
        ungoverned = result.rows[0]
        assert ungoverned["mode"] == "ungoverned"
        assert ungoverned["mean_budget"] == 64.0
        assert "fixed at 64 paths" in result.notes[-1]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError, match="workload"):
            farm.run(TINY, workload="tsunami")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            runner_main(["--experiment", "farm", "--governor", "pid"])
