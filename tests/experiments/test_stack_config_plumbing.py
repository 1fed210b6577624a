"""One stack description per experiment run.

An experiment learns its runtime only from its ``stack_config``: every
stack it opens — link runs, the ML calibration bisection, the SNR-loss
probes — is built from that config, and the saved JSON's ``config``
block is the same config.  A spy on every :class:`~repro.api.UplinkStack`
an experiment builds checks the first half under the runner's runtime
flags; signature pins keep a second way in from coming back.
"""

import inspect
import json
from functools import partial
from typing import get_type_hints

import pytest

from repro.api import StackConfig
from repro.api.stack import UplinkStack
from repro.experiments import fig12, fig9, runner
from repro.experiments.common import PROFILES
from repro.experiments.linkruns import calibrate_ml_snr, run_point
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.snr_loss import build_snr_loss_table

TINY = PROFILES["quick"].scaled(0.25)

#: The experiments that build detection stacks.
STACK_EXPERIMENTS = {"fig9", "fig10", "fig12", "table1", "soft_gain", "farm", "fleet"}
RUNTIME_FLAGS = {"backend", "streaming", "cells", "governor"}


#: The two slow figures on one panel / one size; the others run whole.
SHRUNK = {
    "fig9": partial(fig9.run, panels=((4, 16),), targets=(0.1,)),
    "fig12": partial(fig12.run, per_targets=(0.1,), sizes=(8,)),
}


class TestEveryStackFromTheRunConfig:
    @pytest.mark.parametrize("name", ["fig9", "fig10", "fig12", "table1", "soft_gain"])
    def test_runtime_flags_reach_every_stack(self, name, monkeypatch, tmp_path, capsys):
        built = []
        init = UplinkStack.__init__

        def spy(self, config, *args, **kwargs):
            built.append(config)
            init(self, config, *args, **kwargs)

        monkeypatch.setattr(UplinkStack, "__init__", spy)
        monkeypatch.setattr(runner, "get_profile", lambda profile: TINY)
        if name in SHRUNK:
            monkeypatch.setitem(EXPERIMENTS, name, SHRUNK[name])
        flags = ["--backend", "array", "--streaming", "--cells", "2"]
        argv = ["--experiment", name, *flags, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "parameter" not in capsys.readouterr().out

        saved = json.loads((tmp_path / f"{name}.json").read_text())["config"]
        config = StackConfig.from_dict(saved)
        assert config.backend.name == "array"
        assert (config.farm.streaming, config.farm.cells) == (True, 2)
        assert built, "the experiment built no stack"
        # Calibration included: one description for the whole run.
        assert set(built) == {config}


class TestSignatures:
    """Where an experiment's runtime may come from, by name."""

    def test_no_experiment_takes_a_runtime_flag(self):
        for name, entry in EXPERIMENTS.items():
            assert not RUNTIME_FLAGS & set(inspect.signature(entry).parameters), name

    def test_stack_experiments_take_one_stack_config(self):
        takers = {
            name
            for name, entry in EXPERIMENTS.items()
            if "stack_config" in inspect.signature(entry).parameters
        }
        assert takers == STACK_EXPERIMENTS
        for name in STACK_EXPERIMENTS:
            parameter = inspect.signature(EXPERIMENTS[name]).parameters["stack_config"]
            assert isinstance(parameter.default, StackConfig), name

    @pytest.mark.parametrize(
        "helper", [calibrate_ml_snr, build_snr_loss_table, run_point]
    )
    def test_link_helpers_take_a_stack_config(self, helper):
        parameters = inspect.signature(helper).parameters
        assert "backend" not in parameters
        assert parameters["stack_config"].default is inspect.Parameter.empty
        assert get_type_hints(helper)["stack_config"] is StackConfig
