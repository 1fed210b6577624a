"""REP005: every span/instant name comes from the ``repro.obs`` catalogue.

Dashboards, the Perfetto trace tooling, and perf-regression thresholds
key on *exact* span names.  A call site that invents its own string — or
keeps an old one after a catalogue rename — records data nobody is
looking at, which reads as "the subsystem went quiet" on every chart.
The catalogue is declared once, in :data:`repro.obs.tracer.SPAN_NAMES`
/ ``EVENT_NAMES``, and this rule checks the call sites against it: a
string-literal first argument of ``*.span("...")`` / ``*.instant("...")``
must be in it; a ``Name`` argument is resolved through the module's
imports (and the imported value checked), so ``tracer.span(SPAN_FLUSH)``
verifies against the live catalogue while a local variable stays out of
scope, as does the catalogue module itself (not a call site).

Metric names need no rule: :class:`repro.obs.MetricsRegistry` refuses a
name outside ``METRIC_NAMES`` when the series is created or read.
"""

from __future__ import annotations

import ast
import importlib

from repro.analysis.base import Checker, ModuleSource, register
from repro.obs import EVENT_NAMES, SPAN_NAMES

_SPAN_METHODS = ("span", "instant")
_CATALOGUE = frozenset(SPAN_NAMES) | frozenset(EVENT_NAMES)


@register
class ObsCatalogueChecker(Checker):
    rule = "REP005"
    name = "obs-catalogue"
    description = (
        "span/instant call sites use names declared in the repro.obs "
        "catalogue (SPAN_NAMES / EVENT_NAMES)"
    )

    def check(self, module: ModuleSource):
        if module.relpath.replace("\\", "/").endswith("repro/obs/tracer.py"):
            return  # the catalogue's own definitions are not call sites
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SPAN_METHODS
                and node.args
            ):
                continue
            value = self._resolve_name_arg(module, node.args[0])
            if value is not None and value not in _CATALOGUE:
                yield module.finding(
                    self.rule,
                    f'.{node.func.attr}("{value}") uses a name missing from '
                    "the catalogue — dashboards keyed on declared names "
                    "will never see this series",
                    node=node,
                    fix_hint="declare the name in SPAN_NAMES / EVENT_NAMES "
                    "(repro.obs.tracer) (or use the existing constant for it)",
                )

    @staticmethod
    def _resolve_name_arg(module: ModuleSource, arg) -> "str | None":
        if isinstance(arg, ast.Constant):
            return arg.value if isinstance(arg.value, str) else None
        if isinstance(arg, ast.Name):
            entry = module.imports.names.get(arg.id)
            if entry is None:
                return None  # local variable — out of scope for AST
            origin, original = entry
            try:
                value = getattr(importlib.import_module(origin), original)
            except Exception:
                return None
            return value if isinstance(value, str) else None
        return None
