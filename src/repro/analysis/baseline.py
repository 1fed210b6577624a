"""Baseline suppressions: reviewed findings the analyzer must not gate on.

The baseline file (``.analysis-baseline.json`` at the analysis root) is
the escape hatch for findings a human has reviewed and judged safe —
each entry **must** carry a one-line justification, so every suppression
in the repo documents *why* the pattern is acceptable, not merely that
somebody silenced it.

Entries match on ``(rule, path, snippet)`` where ``snippet`` is the
stripped source line the finding points at.  Matching on line *content*
rather than line *number* keeps a suppression valid across unrelated
edits above it; when the suppressed line itself changes, the suppression
goes stale (reported, never fatal) and the finding comes back — exactly
the re-review you want.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import AnalysisError

BASELINE_FILENAME = ".analysis-baseline.json"


@dataclass(frozen=True)
class Suppression:
    """One reviewed, justified baseline entry."""

    rule: str
    path: str
    snippet: str
    justification: str

    def as_dict(self) -> dict:
        return asdict(self)

    def matches(self, finding) -> bool:
        return (
            self.rule == finding.rule
            and self.path == finding.path
            and self.snippet == finding.snippet
        )


class Baseline:
    """The loaded suppression set plus match bookkeeping."""

    def __init__(self, suppressions: "list[Suppression]" = ()):  # type: ignore[assignment]
        self.suppressions = list(suppressions)
        self._used: set = set()

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: "Path | str") -> "Baseline":
        """Parse a baseline file; malformed content is an internal error.

        Schema::

            {"suppressions": [
                {"rule": "REP001", "path": "src/...", "snippet": "...",
                 "justification": "why this is safe"},
            ]}

        Every field is required and the justification must be
        non-empty — an unjustified suppression fails the run with exit
        code 2, not 0.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise AnalysisError(
                f"cannot read baseline {path}: {error}"
            ) from None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("suppressions"), list
        ):
            raise AnalysisError(
                f"baseline {path} must be "
                '{"suppressions": [...]}'
            )
        suppressions = []
        for index, entry in enumerate(payload["suppressions"]):
            if not isinstance(entry, dict):
                raise AnalysisError(
                    f"baseline {path} entry #{index} must be a mapping"
                )
            unknown = sorted(
                set(entry) - {"rule", "path", "snippet", "justification"}
            )
            if unknown:
                raise AnalysisError(
                    f"baseline {path} entry #{index} has unknown keys "
                    f"{unknown}"
                )
            missing = sorted(
                key
                for key in ("rule", "path", "snippet", "justification")
                if not isinstance(entry.get(key), str) or not entry[key].strip()
            )
            if missing:
                raise AnalysisError(
                    f"baseline {path} entry #{index} needs non-empty "
                    f"{', '.join(missing)} (every suppression must be "
                    "justified)"
                )
            suppressions.append(
                Suppression(
                    rule=entry["rule"],
                    path=entry["path"],
                    snippet=entry["snippet"].strip(),
                    justification=entry["justification"].strip(),
                )
            )
        return cls(suppressions)

    # ------------------------------------------------------------------
    def suppresses(self, finding) -> bool:
        """Whether ``finding`` is covered (marks the entry as used)."""
        for index, suppression in enumerate(self.suppressions):
            if suppression.matches(finding):
                self._used.add(index)
                return True
        return False

    def stale_entries(self) -> "list[Suppression]":
        """Entries that matched no finding this run."""
        return [
            suppression
            for index, suppression in enumerate(self.suppressions)
            if index not in self._used
        ]
