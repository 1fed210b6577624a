"""Tests for the experiment CLI runner."""

import inspect
import json
from dataclasses import replace

import pytest

from repro.api import CacheSpec, FarmSpec, StackConfig, presets
from repro.experiments.runner import EXPERIMENTS, LINK_EXPERIMENTS, main


class TestRegistry:
    def test_every_paper_artefact_has_an_experiment(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "ablations",
            "soft_gain",
            "farm",
            "fleet",
        }
        assert set(EXPERIMENTS) == expected


class TestCli:
    def test_requires_experiment_or_all(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_runs_model_experiment(self, capsys):
        code = main(["--experiment", "table3", "--profile", "quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "flexcore" in out

    def test_saves_json(self, tmp_path, capsys):
        code = main(
            [
                "--experiment",
                "fig11",
                "--profile",
                "quick",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fig11.json").read_text())
        assert payload["experiment"] == "fig11"
        assert payload["rows"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "fig99"])


class TestStreamingFlags:
    @staticmethod
    def _stub_result():
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            experiment="stub", title="Stub", profile="quick", columns=["x"]
        )
        result.add_row(x=1)
        return result

    def test_flags_layer_onto_experiment_default(self, monkeypatch, capsys):
        captured = {}
        default = StackConfig(cache=CacheSpec(max_entries=64))

        def stub(profile, stack_config=default):
            captured["stack_config"] = stack_config
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        code = main(
            [
                "--experiment",
                "stub",
                "--backend",
                "serial",
                "--streaming",
                "--cells",
                "3",
            ]
        )
        assert code == 0
        assert captured["stack_config"] == replace(
            default, farm=FarmSpec(streaming=True, cells=3)
        )

    def test_no_flag_runs_experiment_default(self, monkeypatch):
        captured = {}
        default = StackConfig(cache=CacheSpec(max_entries=64))

        def stub(profile, stack_config=default):
            captured["stack_config"] = stack_config
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        assert main(["--experiment", "stub"]) == 0
        assert captured["stack_config"] is default

    def test_cells_above_one_implies_streaming(self, monkeypatch):
        captured = {}

        def stub(profile, stack_config=StackConfig()):
            captured["stack_config"] = stack_config
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        assert main(["--experiment", "stub", "--cells", "2"]) == 0
        farm = captured["stack_config"].farm
        assert (farm.streaming, farm.cells) == (True, 2)

    def test_invalid_cells_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "table3", "--cells", "0"])


class TestControlPlaneFlags:
    @staticmethod
    def _stub_result():
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            experiment="stub", title="Stub", profile="quick", columns=["x"]
        )
        result.add_row(x=1)
        return result

    def test_governor_and_workload_forwarded(self, monkeypatch):
        captured = {}

        def stub(
            profile, workload="bursty", stack_config=presets.get("farm-overload")
        ):
            captured.update(workload=workload, stack_config=stack_config)
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        code = main(
            [
                "--experiment",
                "stub",
                "--governor",
                "snr",
                "--workload",
                "flash-crowd",
            ]
        )
        assert code == 0
        assert captured["workload"] == "flash-crowd"
        config = captured["stack_config"]
        assert config.governor.policy == "snr"
        assert config.farm.cells == 2

    def test_workers_skipped_without_parameter(self, monkeypatch, capsys):
        def stub(profile):
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        assert main(["--experiment", "stub", "--workers", "2"]) == 0
        assert "no workers parameter" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "farm", "--workload", "tsunami"])


class TestConfigFlags:
    @staticmethod
    def _stub_result():
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            experiment="stub", title="Stub", profile="quick", columns=["x"]
        )
        result.add_row(x=1)
        return result

    def test_dump_config_without_experiment(self, tmp_path):
        path = tmp_path / "stack.json"
        code = main(
            ["--preset", "farm-overload", "--dump-config", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert StackConfig.from_dict(payload) == presets.get(
            "farm-overload"
        )

    def test_config_file_round_trips_into_experiment(
        self, tmp_path, monkeypatch
    ):
        """--dump-config output feeds --config: the file path end-to-end."""
        captured = {}

        def stub(profile, stack_config=StackConfig()):
            captured["stack_config"] = stack_config
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        path = tmp_path / "stack.json"
        assert main(["--preset", "ap-farm", "--dump-config", str(path)]) == 0
        code = main(["--experiment", "stub", "--config", str(path)])
        assert code == 0
        assert captured["stack_config"] == presets.get("ap-farm")

    def test_flags_layer_over_preset(self, monkeypatch):
        captured = {}

        def stub(profile, stack_config=StackConfig()):
            captured["stack_config"] = stack_config
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        code = main(
            [
                "--experiment",
                "stub",
                "--preset",
                "paper-fig9",
                "--backend",
                "array",
                "--cells",
                "2",
            ]
        )
        assert code == 0
        config = captured["stack_config"]
        assert config.backend.name == "array"  # flag override
        assert config.farm.cells == 2
        assert config.farm.streaming  # implied by --cells 2
        assert config.detector == presets.get("paper-fig9").detector

    def test_unknown_preset_rejected_with_catalogue(self, capsys):
        with pytest.raises(SystemExit):
            main(["--experiment", "table3", "--preset", "mega-farm"])
        err = capsys.readouterr().err
        assert "ap-farm" in err and "paper-fig9" in err

    def test_config_and_preset_mutually_exclusive(self, tmp_path):
        path = tmp_path / "stack.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            main(
                [
                    "--experiment",
                    "table3",
                    "--config",
                    str(path),
                    "--preset",
                    "ap-farm",
                ]
            )

    def test_invalid_config_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "stack.json"
        path.write_text(json.dumps({"detecter": {}}))
        with pytest.raises(SystemExit):
            main(["--experiment", "table3", "--config", str(path)])
        assert "detecter" in capsys.readouterr().err

    def test_stackless_experiment_saves_no_config(
        self, tmp_path, monkeypatch, capsys
    ):
        """An experiment that builds no stack embeds no config: the
        runtime flags of its run touched nothing, and the runner says so."""

        def stub(profile):
            return self._stub_result()

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        code = main(
            ["--experiment", "stub", "--backend", "array", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "stub.json").read_text())
        assert "config" not in payload
        out = capsys.readouterr().out
        assert "[stub: builds no stack, runtime flags ignored]" in out

    def test_dump_config_is_the_config_the_run_embeds(
        self, tmp_path, monkeypatch
    ):
        """With no --config / --preset the dump is the experiment's own
        default with the flags layered on — what its saved JSON embeds."""
        default = StackConfig(cache=CacheSpec(max_entries=4096))

        def stub(profile, stack_config=default):
            result = self._stub_result()
            result.config = stack_config.to_dict()
            return result

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        dump = tmp_path / "dump.json"
        code = main(
            ["--experiment", "stub", "--dump-config", str(dump), "--out", str(tmp_path)]
        )
        assert code == 0
        saved = json.loads((tmp_path / "stub.json").read_text())["config"]
        dumped = StackConfig.from_dict(json.loads(dump.read_text()))
        assert dumped == StackConfig.from_dict(saved) == default

    def test_a_link_experiment_dumps_what_it_embeds(self, tmp_path):
        """table1 drops the --governor a link run must not obey; the dump
        drops it too, and is the embedded block, key for key."""
        dump = tmp_path / "dump.json"
        argv = ["--experiment", "table1", "--profile", "quick", "--governor", "snr"]
        assert main([*argv, "--dump-config", str(dump), "--out", str(tmp_path)]) == 0
        dumped = json.loads(dump.read_text())
        assert dumped == json.loads((tmp_path / "table1.json").read_text())["config"]
        assert dumped["governor"] is None

    def test_link_experiments_are_the_ones_that_strip(self):
        for name, run in EXPERIMENTS.items():
            strips = "runtime_stack_config(" in inspect.getsource(inspect.getmodule(run))
            assert strips == (name in LINK_EXPERIMENTS), name

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--experiment", "table3"], "builds no stack"),
            (["--all"], "own default"),
        ],
        ids=["stackless", "all-on-defaults"],
    )
    def test_dump_config_refuses_without_one_config(
        self, tmp_path, capsys, argv, reason
    ):
        dump = tmp_path / "dump.json"
        with pytest.raises(SystemExit):
            main([*argv, "--dump-config", str(dump)])
        assert reason in capsys.readouterr().err
        assert not dump.exists()

    def test_fig9_style_experiment_config_wins(self, monkeypatch):
        """A stack_config-aware experiment gets the authoritative config
        rather than having to re-derive it from flags."""
        captured = {}

        def stub(profile, stack_config=None):
            captured["stack_config"] = stack_config
            result = self._stub_result()
            result.config = (
                stack_config.to_dict() if stack_config else None
            )
            return result

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        assert (
            main(["--experiment", "stub", "--preset", "farm-overload"])
            == 0
        )
        assert (
            captured["stack_config"].governor.policy == "aimd"
        )
