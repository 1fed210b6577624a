"""REP005: every span/metric name comes from the ``repro.obs`` catalogue.

Dashboards, the Perfetto trace tooling, and perf-regression thresholds
key on *exact* span and metric names.  A call site that invents its own
string — or keeps an old one after a catalogue rename — records data
nobody is looking at, which reads as "the subsystem went quiet" on
every chart.  The catalogue is declared once:

* :data:`repro.obs.tracer.SPAN_NAMES` / ``EVENT_NAMES`` — the span and
  instant-marker vocabularies;
* :data:`repro.obs.metrics.METRIC_NAMES` — every counter/gauge/
  histogram name.

This rule checks the call sites against it:

* ``*.span("...")`` / ``*.instant("...")`` — a string-literal first
  argument must be in ``SPAN_NAMES`` / ``EVENT_NAMES``; a ``Name``
  argument is resolved through the module's imports (and the imported
  value checked), so ``tracer.span(SPAN_FLUSH)`` verifies against the
  live catalogue while a local variable stays out of scope;
* ``*.counter("...")`` / ``*.gauge("...")`` / ``*.histogram("...")``
  and the read side ``*.series("...")`` / ``*.total("...")`` — a
  string-literal name must be in ``METRIC_NAMES`` (a misspelled read
  is a view that silently reports zero).

Variable metric names (the registry's own internals, tests) are not
provable at the AST level and are skipped, as are the catalogue
modules themselves (the definitions are not call sites).
"""

from __future__ import annotations

import ast
import importlib

from repro.analysis.base import Checker, ModuleSource, register

_SPAN_METHODS = ("span", "instant")
_METRIC_METHODS = ("counter", "gauge", "histogram", "series", "total")


def _catalogue() -> "tuple[set, set]":
    """``(span_and_event_names, metric_names)`` from the live package."""
    try:
        obs = importlib.import_module("repro.obs")
        names = set(getattr(obs, "SPAN_NAMES", ())) | set(
            getattr(obs, "EVENT_NAMES", ())
        )
        metrics = set(getattr(obs, "METRIC_NAMES", ()))
        return names, metrics
    except Exception:
        return set(), set()


@register
class ObsCatalogueChecker(Checker):
    rule = "REP005"
    name = "obs-catalogue"
    description = (
        "span/instant and counter/gauge/histogram/series/total call sites use names "
        "declared in the repro.obs catalogue (SPAN_NAMES / EVENT_NAMES "
        "/ METRIC_NAMES)"
    )

    def check(self, module: ModuleSource):
        span_names, metric_names = _catalogue()
        if not span_names and not metric_names:
            return  # catalogue not importable; nothing to check against
        if module.relpath.replace("\\", "/").endswith(
            ("repro/obs/tracer.py", "repro/obs/metrics.py")
        ):
            return  # the catalogue's own definitions are not call sites
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
            ):
                continue
            method = node.func.attr
            if method in _SPAN_METHODS and span_names:
                yield from self._check_name_arg(
                    module,
                    node,
                    method,
                    span_names,
                    "SPAN_NAMES / EVENT_NAMES (repro.obs.tracer)",
                )
            elif method in _METRIC_METHODS and metric_names:
                yield from self._check_name_arg(
                    module,
                    node,
                    method,
                    metric_names,
                    "METRIC_NAMES (repro.obs.metrics)",
                )

    # ------------------------------------------------------------------
    def _check_name_arg(self, module, call, method, catalogue, where):
        value = self._resolve_name_arg(module, call.args[0])
        if value is None:
            return  # variable/attribute argument: not provable, skip
        if value not in catalogue:
            yield module.finding(
                self.rule,
                f'.{method}("{value}") uses a name missing from the '
                f"catalogue — dashboards keyed on declared names will "
                "never see this series",
                node=call,
                fix_hint=f"declare the name in {where} (or use the "
                "existing constant for it)",
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
