"""CLI contract: exit codes 0/1/2, output shapes, baseline handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import BASELINE_FILENAME, main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        code = main([str(FIXTURES / "rep001_good.py"), "--no-baseline"])
        assert code == 0
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = main([str(FIXTURES / "rep001_bad.py"), "--no-baseline"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "2 finding(s)" in out

    def test_unknown_rule_exits_two(self, capsys):
        code = main(
            [str(FIXTURES / "rep001_good.py"), "--rules", "NOPE", "--no-baseline"]
        )
        assert code == 2
        assert "unknown rule(s) NOPE" in capsys.readouterr().err

    def test_retired_rule_exits_two(self, capsys):
        code = main(
            [str(FIXTURES / "rep001_good.py"), "--rules", "REP004", "--no-baseline"]
        )
        assert code == 2
        assert "unknown rule(s) REP004" in capsys.readouterr().err

    def test_missing_explicit_baseline_exits_two(self, capsys):
        code = main(
            [
                str(FIXTURES / "rep001_good.py"),
                "--baseline",
                str(FIXTURES / "no-such-baseline.json"),
            ]
        )
        assert code == 2
        assert "baseline file not found" in capsys.readouterr().err


class TestOutputFormats:
    def test_json_shape(self, capsys):
        code = main(
            [str(FIXTURES / "rep001_bad.py"), "--format", "json", "--no-baseline"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 2
        assert payload["summary"]["by_rule"] == {"REP001": 2}
        finding = payload["findings"][0]
        assert {"rule", "message", "path", "line", "col", "severity"} <= set(
            finding
        )
        assert finding["path"].endswith("rep001_bad.py")
        assert finding["line"] > 0

    def test_github_annotations(self, capsys):
        code = main(
            [
                str(FIXTURES / "rep001_bad.py"),
                "--format",
                "github",
                "--no-baseline",
            ]
        )
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines[:2]:
            assert line.startswith("::error file=")
            assert "title=REP001" in line
        assert lines[-1].startswith("::notice title=repro.analysis::")

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("REP001", "REP002", "REP005"):
            assert rule in out
        for retired in ("REP003", "REP004"):
            assert retired not in out  # retired, not reused


def _finding_path(filename):
    """The relpath the runner stamps on findings (relative to the cwd)."""
    resolved = (FIXTURES / filename).resolve()
    try:
        return resolved.relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


class TestBaseline:
    def _write(self, tmp_path, entries):
        path = tmp_path / BASELINE_FILENAME
        path.write_text(json.dumps({"suppressions": entries}))
        return path

    def test_justified_suppression_silences_the_finding(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path,
            [
                {
                    "rule": "REP001",
                    "path": _finding_path("rep001_bad.py"),
                    "snippet": "time.sleep(0.1)",
                    "justification": "fixture: reviewed for this test",
                },
                {
                    "rule": "REP001",
                    "path": _finding_path("rep001_bad.py"),
                    "snippet": "time.sleep(0.5)",
                    "justification": "fixture: reviewed for this test",
                },
            ],
        )
        code = main(
            [str(FIXTURES / "rep001_bad.py"), "--baseline", str(baseline)]
        )
        assert code == 0
        assert "(2 suppressed by baseline)" in capsys.readouterr().out

    def test_unjustified_suppression_exits_two(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path,
            [
                {
                    "rule": "REP001",
                    "path": "x.py",
                    "snippet": "time.sleep(1)",
                    "justification": "   ",
                }
            ],
        )
        code = main(
            [str(FIXTURES / "rep001_good.py"), "--baseline", str(baseline)]
        )
        assert code == 2
        assert "must be justified" in capsys.readouterr().err

    def test_stale_entry_is_reported_not_fatal(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path,
            [
                {
                    "rule": "REP001",
                    "path": "no/such/file.py",
                    "snippet": "time.sleep(9)",
                    "justification": "matches nothing anymore",
                }
            ],
        )
        code = main(
            [str(FIXTURES / "rep001_good.py"), "--baseline", str(baseline)]
        )
        assert code == 0
        assert "stale baseline entry" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_smoke(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "REP005" in result.stdout
