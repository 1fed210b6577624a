"""Analysis driver: collect files, run checkers, apply the baseline.

``python -m repro.analysis`` lands here.  The run is deterministic:
files are walked in sorted order, checkers run in rule order, findings
sort by ``(path, line, col, rule)`` — so CI annotations and the JSON
report are byte-stable for a given tree.

Exit codes (the CLI contract, pinned by ``tests/analysis``):

* ``0`` — clean: no unsuppressed findings;
* ``1`` — findings (any severity) survived the baseline;
* ``2`` — internal error: unusable arguments, a malformed or
  unjustified baseline, or a checker crash
  (:class:`~repro.errors.AnalysisError`).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from repro.analysis.base import ModuleSource, all_checkers
from repro.analysis.baseline import BASELINE_FILENAME, Baseline
from repro.analysis.findings import (
    SEVERITY_ERROR,
    AnalysisReport,
    Finding,
)
from repro.errors import AnalysisError


def iter_python_files(paths: "list[Path]") -> "list[Path]":
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    files = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise AnalysisError(f"not a python file or directory: {path}")
    seen = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def default_target(root: Path) -> Path:
    """What to analyze when no paths are given: the repo's ``src/repro``
    if the cwd is a checkout, else the installed package itself."""
    candidate = root / "src" / "repro"
    if candidate.is_dir():
        return candidate
    import repro

    return Path(repro.__file__).parent


def run_analysis(
    paths: "list[Path]",
    root: "Path | None" = None,
    rules: "list[str] | None" = None,
    baseline: "Baseline | None" = None,
) -> AnalysisReport:
    """Run the selected checkers over ``paths``; apply ``baseline``."""
    root = Path.cwd() if root is None else root
    checkers = all_checkers(rules)
    report = AnalysisReport(rules_run=tuple(c.rule for c in checkers))
    findings = []
    for path in iter_python_files(paths):
        try:
            module = ModuleSource.load(path, root)
        except (SyntaxError, ValueError) as error:
            lineno = getattr(error, "lineno", 0) or 0
            try:
                relpath = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                relpath = path.as_posix()
            findings.append(
                Finding(
                    rule="PARSE",
                    message=f"file does not parse: {error}",
                    path=relpath,
                    line=lineno,
                    severity=SEVERITY_ERROR,
                )
            )
            report.files_checked += 1
            continue
        except OSError as error:
            raise AnalysisError(f"cannot read {path}: {error}") from None
        report.files_checked += 1
        for checker in checkers:
            try:
                findings.extend(checker.check(module))
            except AnalysisError:
                raise
            except Exception as error:
                raise AnalysisError(
                    f"checker {checker.rule} crashed on "
                    f"{module.relpath}: {error!r}\n"
                    f"{traceback.format_exc()}"
                ) from None
    findings.sort(key=lambda finding: finding.sort_key())
    for finding in findings:
        if baseline is not None and baseline.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    if baseline is not None:
        report.stale_suppressions = baseline.stale_entries()
    return report


# ----------------------------------------------------------------------
# Output formats.


def format_text(report: AnalysisReport) -> str:
    lines = [finding.text_line() for finding in report.findings]
    lines.append(
        f"{len(report.findings)} finding(s) in {report.files_checked} "
        f"file(s) ({len(report.suppressed)} suppressed by baseline)"
    )
    for entry in report.stale_suppressions:
        lines.append(
            f"note: stale baseline entry {entry.rule} {entry.path!r} "
            f"matched nothing (safe to delete)"
        )
    return "\n".join(lines)


def format_json(report: AnalysisReport) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)


def format_github(report: AnalysisReport) -> str:
    lines = [finding.github_line() for finding in report.findings]
    lines.append(
        f"::notice title=repro.analysis::{len(report.findings)} finding(s) "
        f"in {report.files_checked} file(s), "
        f"{len(report.suppressed)} suppressed"
    )
    return "\n".join(lines)


FORMATTERS = {
    "text": format_text,
    "json": format_json,
    "github": format_github,
}


# ----------------------------------------------------------------------
# CLI.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Repo-native static analysis: real-time, determinism and "
            "trace-catalogue invariants of the repro stack (see "
            "--list-rules)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=tuple(FORMATTERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset, e.g. REP001,REP005",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=(
            "baseline suppression file (default: ./"
            + BASELINE_FILENAME
            + " when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report everything)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for checker in all_checkers():
        lines.append(f"{checker.rule}  {checker.name}")
        lines.append(f"    {checker.description}")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.list_rules:
            print(_list_rules())
            return 0
        root = Path.cwd()
        paths = list(args.paths) or [default_target(root)]
        rules = (
            [rule.strip() for rule in args.rules.split(",") if rule.strip()]
            if args.rules is not None
            else None
        )
        baseline = None
        if not args.no_baseline:
            baseline_path = args.baseline
            if baseline_path is None:
                candidate = root / BASELINE_FILENAME
                baseline_path = candidate if candidate.exists() else None
            elif not baseline_path.exists():
                raise AnalysisError(
                    f"baseline file not found: {baseline_path}"
                )
            if baseline_path is not None:
                baseline = Baseline.load(baseline_path)
        report = run_analysis(
            paths, root=root, rules=rules, baseline=baseline
        )
        print(FORMATTERS[args.format](report))
        return report.exit_code
    except AnalysisError as error:
        print(f"repro.analysis: internal error: {error}", file=sys.stderr)
        return 2
