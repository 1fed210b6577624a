"""Checker plumbing: parsed module context, import resolution, registry.

Every checker sees one :class:`ModuleSource` at a time — the parsed AST
plus enough resolution machinery to follow imports (``ImportMap``).
Checkers register themselves with :func:`register`; the runner
instantiates every registered checker (or the ``--rules`` subset) per
run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.errors import AnalysisError


@dataclass
class ImportMap:
    """Name-resolution tables built from a module's import statements.

    ``modules`` maps a local alias to the dotted module it names
    (``import numpy as np`` -> ``{"np": "numpy"}``); ``names`` maps a
    local name to its ``(module, original)`` origin
    (``from time import sleep`` -> ``{"sleep": ("time", "sleep")}``).
    """

    modules: dict = field(default_factory=dict)
    names: dict = field(default_factory=dict)

    @classmethod
    def from_tree(cls, tree: ast.Module) -> "ImportMap":
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    imports.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports: origin not resolvable here
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports.names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
        return imports

    # ------------------------------------------------------------------
    def resolve_call(self, node: ast.Call) -> "str | None":
        """Dotted origin of a call through this module's imports.

        ``time.sleep(...)`` -> ``"time.sleep"``; ``sleep(...)`` after
        ``from time import sleep`` -> ``"time.sleep"``; calls on local
        objects resolve to ``None``.
        """
        return self.resolve_expr(node.func)

    def resolve_expr(self, node: ast.expr) -> "str | None":
        if isinstance(node, ast.Name):
            origin = self.names.get(node.id)
            if origin is not None:
                return f"{origin[0]}.{origin[1]}"
            return None
        if isinstance(node, ast.Attribute):
            chain = []
            current: ast.expr = node
            while isinstance(current, ast.Attribute):
                chain.append(current.attr)
                current = current.value
            if isinstance(current, ast.Name):
                base = self.modules.get(current.id)
                if base is None:
                    origin = self.names.get(current.id)
                    if origin is None:
                        return None
                    base = f"{origin[0]}.{origin[1]}"
                return ".".join([base] + list(reversed(chain)))
        return None


class ModuleSource:
    """One parsed file handed to the checkers.

    Attributes
    ----------
    path:
        Absolute filesystem path.
    relpath:
        Posix path relative to the analysis root — the identity used in
        findings and baseline entries.
    tree:
        The parsed :class:`ast.Module`.
    source / lines:
        Raw text and its split lines (1-based access via
        :meth:`line_text`).
    imports:
        The module's :class:`ImportMap`.
    """

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.imports = ImportMap.from_tree(tree)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleSource":
        """Parse ``path``; raises SyntaxError for the runner to convert."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(path, relpath, source, tree)

    def line_text(self, lineno: int) -> str:
        """Stripped source text of a 1-based line (empty off-range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # ------------------------------------------------------------------
    def finding(
        self,
        rule: str,
        message: str,
        node: "ast.AST | None" = None,
        severity: str = SEVERITY_ERROR,
        fix_hint: str = "",
    ) -> Finding:
        """A :class:`Finding` anchored at ``node`` in this module."""
        line = getattr(node, "lineno", 0) if node is not None else 0
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule=rule,
            message=message,
            path=self.relpath,
            line=line,
            col=col,
            severity=severity,
            fix_hint=fix_hint,
            snippet=self.line_text(line),
        )


class Checker:
    """Base class: one rule, checked one module at a time.

    Subclasses set ``rule`` (``"REP001"``), ``name`` (a short slug) and
    ``description``, and implement :meth:`check` yielding
    :class:`~repro.analysis.findings.Finding` records.  A checker must
    be deterministic — equal input modules produce equal findings — so
    CI annotations and the baseline stay stable.
    """

    rule = "REPXXX"
    name = "unnamed"
    description = ""

    def check(self, module: ModuleSource):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Checker {self.rule} {self.name}>"


#: rule id -> Checker subclass.  Populated by :func:`register` at
#: import time of :mod:`repro.analysis.checkers`.
REGISTRY: dict = {}


def register(cls):
    """Class decorator adding a checker to :data:`REGISTRY`."""
    if not issubclass(cls, Checker):
        raise AnalysisError(f"{cls!r} is not a Checker subclass")
    if cls.rule in REGISTRY and REGISTRY[cls.rule] is not cls:
        raise AnalysisError(f"duplicate checker rule {cls.rule!r}")
    REGISTRY[cls.rule] = cls
    return cls


def all_checkers(rules: "tuple | list | None" = None) -> list:
    """Instances of every registered checker, sorted by rule id.

    ``rules`` selects a subset; unknown rule ids raise
    :class:`~repro.errors.AnalysisError` (listing the catalogue).
    """
    import repro.analysis.checkers  # noqa: F401  (populates REGISTRY)

    if rules is None:
        selected = sorted(REGISTRY)
    else:
        unknown = sorted(set(rules) - set(REGISTRY))
        if unknown:
            raise AnalysisError(
                f"unknown rule(s) {', '.join(unknown)}; available: "
                f"{', '.join(sorted(REGISTRY))}"
            )
        selected = sorted(set(rules))
    return [REGISTRY[rule]() for rule in selected]
