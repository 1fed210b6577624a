"""The repo itself passes its own analyzer, and the error surface is whole."""

from pathlib import Path

import pytest

import repro.errors
from repro.analysis import BASELINE_FILENAME, Baseline, run_analysis
from repro.analysis.base import REGISTRY, all_checkers
from repro.errors import AnalysisError, ReproError

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


class TestRepoIsClean:
    def test_zero_unsuppressed_findings(self):
        baseline = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
        report = run_analysis([SRC], root=REPO_ROOT, baseline=baseline)
        assert report.findings == [], [f.text_line() for f in report.findings]
        assert report.rules_run == ("REP001", "REP002", "REP005")
        assert report.files_checked > 100

    def test_no_stale_baseline_entries(self):
        baseline = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
        run_analysis([SRC], root=REPO_ROOT, baseline=baseline)
        assert baseline.stale_entries() == []

    def test_every_baseline_entry_is_justified(self):
        baseline = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
        assert baseline.suppressions, "baseline should document the review"
        for entry in baseline.suppressions:
            assert len(entry.justification) > 20, entry


class TestRegistry:
    def test_three_rules_registered(self):
        all_checkers()  # imports the checkers package
        assert sorted(REGISTRY) == ["REP001", "REP002", "REP005"]

    def test_unknown_rule_raises_analysis_error(self):
        with pytest.raises(AnalysisError):
            all_checkers(["REP999"])


class TestErrorSurface:
    def test_all_typed_errors_exported_and_importable(self):
        exported = repro.errors.__all__
        assert "AnalysisError" in exported
        for name in exported:
            error_cls = getattr(repro.errors, name)
            assert isinstance(error_cls, type), name
            assert issubclass(error_cls, Exception), name

    def test_every_repro_error_subclass_is_in_all(self):
        subclasses = {
            cls.__name__
            for cls in ReproError.__subclasses__()
            if cls.__module__ == "repro.errors"
        }
        assert subclasses <= set(repro.errors.__all__)

    def test_analysis_error_is_a_repro_error(self):
        assert issubclass(AnalysisError, ReproError)


class TestMetricCatalogue:
    """The registry refuses a series outside ``METRIC_NAMES``, so what a
    run writes is catalogued by construction; these prove the converse —
    nothing in the catalogue is dead."""

    def test_a_real_runs_series_are_catalogued(self):
        import asyncio

        import numpy as np

        from repro.flexcore.detector import FlexCoreDetector
        from repro.mimo.system import MimoSystem
        from repro.modulation.constellation import QamConstellation
        from repro.obs import METRIC_NAMES, Observability
        from repro.obs.metrics import parse_key
        from repro.runtime import (
            ArrayBackend,
            CellFarm,
            CountingArrayModule,
            FrameArrival,
        )

        detector = FlexCoreDetector(MimoSystem(2, 2, QamConstellation(4)), num_paths=4)
        obs = Observability()
        farm = CellFarm(ArrayBackend(CountingArrayModule()), obs=obs)
        farm.add_cell("a", detector)
        farm.add_cell("b", detector)
        rng = np.random.default_rng(1)

        async def drive():
            async with farm.scheduler(batch_target=2, slot_budget_s=0.5) as scheduler:
                scheduler.telemetry.max_records = 1  # exercise the drop count
                futures = [
                    await scheduler.submit(
                        FrameArrival(
                            rng.standard_normal((2, 2)) + 0j,
                            rng.standard_normal((frames, 2)) + 0j,
                            0.1,
                            cell=cell,
                        )
                    )
                    for cell, frames in (("a", 2), ("b", 2), ("a", 1))
                ]
                await scheduler.flush()
                await asyncio.gather(*futures)

        asyncio.run(drive())
        farm.close()
        written = {
            parse_key(key)[0]
            for table in obs.metrics.to_dict().values()
            for key in table
        }
        # A broad run: everything but the restart count (no fleet here)
        # and the derived gauge, which is never stored.
        assert set(METRIC_NAMES) - written == {
            "repro_deadline_hit_rate",
            "repro_worker_restarts_total",
        }
        assert "repro_deadline_hit_rate" in obs.prometheus_text()

    def test_every_catalogue_name_has_a_call_site(self):
        import ast
        import re

        from repro.obs import METRIC_NAMES

        written = set()
        for path in SRC.rglob("*.py"):
            if path.name == "metrics.py" and path.parent.name == "obs":
                continue  # the catalogue itself
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    written.add(node.args[0].value)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    # A series written as exposition text (the derived gauge).
                    written.update(re.findall(r"# TYPE (\w+) ", node.value))
        assert set(METRIC_NAMES) <= written, set(METRIC_NAMES) - written
