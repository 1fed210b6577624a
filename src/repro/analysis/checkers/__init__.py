"""Built-in checkers; importing this package populates the registry.

Each module registers one :class:`~repro.analysis.base.Checker` via the
:func:`~repro.analysis.base.register` decorator.  Third-party checkers
follow the same recipe: define a subclass with a unique ``rule`` id,
decorate it, and import the module before calling
:func:`~repro.analysis.base.all_checkers`.
"""

from __future__ import annotations

from repro.analysis.checkers import (  # noqa: F401  (import = register)
    rep001_async_blocking,
    rep002_determinism,
    rep005_obs_catalogue,
)
