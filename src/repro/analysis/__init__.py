"""Repo-native static analysis: the invariants tests cannot see.

The stack holds a few invariants purely by convention — the asyncio
scheduler must never block the event loop inside a flush path, the
FlexCore kernels must stay bit-identical across serial/array/block
paths (which unordered iteration and global RNG silently break), and
every span/instant name must be catalogued.  The hypothesis pins catch
the *regressions* these hazards cause; this package catches the hazards
themselves, at CI time, before a test runs.

Three rules (``python -m repro.analysis --list-rules``).  The ids REP003
and REP004 are retired, not reused: spec serialization is derived from
the fields, and the farm wire is JSON by construction
(``repro.farm.protocol.send``).

========  =================  =============================================
REP001    async-blocking     blocking calls reachable from ``async def``
REP002    kernel-determinism unordered iteration / legacy global RNG
REP005    obs-catalogue      span/instant names declared in ``repro.obs``
========  =================  =============================================

Reviewed exceptions live in ``.analysis-baseline.json`` — every entry
carries a one-line justification and matches on source *content*, so a
suppression cannot silently outlive the line it reviewed.
"""

from __future__ import annotations

from repro.analysis.base import (
    REGISTRY,
    Checker,
    ImportMap,
    ModuleSource,
    all_checkers,
    register,
)
from repro.analysis.baseline import BASELINE_FILENAME, Baseline, Suppression
from repro.analysis.findings import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    AnalysisReport,
    Finding,
)
from repro.analysis.runner import main, run_analysis

__all__ = [
    "AnalysisReport",
    "BASELINE_FILENAME",
    "Baseline",
    "Checker",
    "Finding",
    "ImportMap",
    "ModuleSource",
    "REGISTRY",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Suppression",
    "all_checkers",
    "main",
    "register",
    "run_analysis",
]
