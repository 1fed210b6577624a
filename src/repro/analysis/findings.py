"""Finding records: what a checker reports and how it is rendered.

A :class:`Finding` is one diagnosed violation — rule id, location,
severity, message and (optionally) a fix hint.  Findings are plain
data: the :mod:`repro.analysis.runner` decides how they are grouped,
suppressed and formatted (``text`` / ``json`` / ``github``), the
checkers only produce them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.errors import AnalysisError

#: Severity vocabulary.  ``error`` findings gate CI (exit code 1);
#: ``warning`` findings are advisory but still count as findings so a
#: clean run is genuinely silent.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding:
    """One diagnosed violation at a source location.

    Attributes
    ----------
    rule:
        Rule id (``"REP001"``, ``"REP002"``, ..., or ``"PARSE"`` for a
        file the analyzer could not parse).
    message:
        Human-readable one-line diagnosis.
    path:
        Posix-style path of the offending file, relative to the
        analysis root (what baseline entries match against).
    line / col:
        1-based line and 0-based column of the offending node.
    severity:
        :data:`SEVERITY_ERROR` or :data:`SEVERITY_WARNING`.
    fix_hint:
        Short actionable suggestion (may be empty).
    snippet:
        The stripped source line the finding points at — the stable
        content key baseline suppressions match on, so a suppression
        survives unrelated line drift.
    """

    rule: str
    message: str
    path: str
    line: int = 0
    col: int = 0
    severity: str = SEVERITY_ERROR
    fix_hint: str = ""
    snippet: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise AnalysisError(
                f"unknown severity {self.severity!r}; options: "
                f"{', '.join(SEVERITIES)}"
            )

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-native payload for the ``json`` output format."""
        return asdict(self)

    def text_line(self) -> str:
        """``path:line:col: RULE severity: message`` (text format)."""
        parts = f"{self.path}:{self.line}:{self.col}: "
        parts += f"{self.rule} {self.severity}: {self.message}"
        if self.fix_hint:
            parts += f" [fix: {self.fix_hint}]"
        return parts

    def github_line(self) -> str:
        """A GitHub Actions workflow-command annotation line."""
        level = "error" if self.severity == SEVERITY_ERROR else "warning"
        message = self.message
        if self.fix_hint:
            message += f" (fix: {self.fix_hint})"
        # Workflow-command escaping: %0A etc. keep the annotation one line.
        message = (
            message.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        return (
            f"::{level} file={self.path},line={self.line},"
            f"col={self.col + 1},title={self.rule}::{message}"
        )

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)


@dataclass
class AnalysisReport:
    """What one analysis run produced.

    ``findings`` are the live (unsuppressed) diagnoses; ``suppressed``
    were matched by a baseline entry; ``stale_suppressions`` are
    baseline entries that matched nothing (candidates for deletion —
    reported, never fatal).
    """

    findings: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)
    stale_suppressions: list = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple = ()

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings (internal errors exit 2 upstream)."""
        return 1 if self.findings else 0

    def as_dict(self) -> dict:
        rule_counts: dict = {}
        for finding in self.findings:
            rule_counts[finding.rule] = rule_counts.get(finding.rule, 0) + 1
        return {
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "stale_suppressions": [
                entry.as_dict() for entry in self.stale_suppressions
            ],
            "summary": {
                "files_checked": self.files_checked,
                "rules_run": list(self.rules_run),
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": dict(sorted(rule_counts.items())),
            },
        }
