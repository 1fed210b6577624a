"""Execution backends: which in-process route a batch takes.

A backend is a *selection* plus the state that selection needs, not a
place work is shipped to.  :class:`~repro.runtime.service.DetectionService`
has two in-process routes and picks between them from the backend it was
given:

* ``serial`` — one kernel call per subcarrier (``detect_prepared`` at
  G = 1).  Stateless.  This is the reference route: flexbench's oracle
  and the equivalence suites run it to check the stacked walk bit for
  bit.
* ``array`` — detectors providing a stacked kernel walk the whole
  coherence block as one ``(S, F, P, Nt)`` tensor — in one native call
  per group where :mod:`repro.native` has a lane — which is the paper's
  actual execution model: every (subcarrier x path) processing element
  in flight at once (§3.2, §5.2).  Owns the resident context store and
  the ``xp`` boundary its kernels upload through (:mod:`repro.utils.xp`).

The paper's other parallel axis — subcarrier ranges spread across
devices (§5.2) — is not a backend: :mod:`repro.farm` is the one
multi-process mechanism, supervising worker processes that each run a
whole stack on one of these backends.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.runtime.residency import ResidentContextStore
from repro.utils.xp import ArrayModule, resolve_array_module


class ExecutionBackend:
    """Base of the backends :func:`make_backend` resolves or passes through."""

    name: str = "backend"

    def close(self) -> None:
        """Release what the backend holds (nothing, by default)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Selects the per-subcarrier loop — the reference route."""

    name = "serial"


class ArrayBackend(ExecutionBackend):
    """Stacked tensor-walk execution with resident walk plans.

    Contexts for the whole batch are prepared through the cache (cache
    misses factorised by one stacked QR) and detectors with a block
    kernel (:attr:`repro.detectors.base.Detector.has_block_kernel`) walk
    all subcarriers of equal path count as a single ``(S, F, P, Nt)``
    tensor.  Detectors without one run the same per-subcarrier loop
    :class:`SerialBackend` selects — the backend is always safe to pick.

    Every group's walk plan stays resident across calls in one
    :class:`~repro.runtime.residency.ResidentContextStore` shared by
    every cell on this backend, so warm coherence-cache hits upload zero
    context bytes.

    Parameters
    ----------
    array_module:
        The :class:`~repro.utils.xp.ArrayModule` the kernels cross the
        host↔device boundary through: ``"numpy"`` (``None``, the
        default) or an instance — a
        :class:`~repro.utils.xp.CountingArrayModule` meters the
        transfers into each result's ``stats["transfers"]``.
    """

    name = "array"

    def __init__(self, array_module: "str | ArrayModule | None" = None):
        self.array_module = resolve_array_module(array_module)
        self.resident_store = ResidentContextStore()

    def close(self) -> None:
        self.resident_store.clear()


_BACKENDS = {"serial": SerialBackend, "array": ArrayBackend}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_backend`."""
    return tuple(sorted(_BACKENDS))


def make_backend(spec, **kwargs) -> ExecutionBackend:
    """Resolve a backend name or pass an instance through."""
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        cls = _BACKENDS[spec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown backend {spec!r}; registered backends: "
            f"{', '.join(available_backends())}"
        ) from None
    return cls(**kwargs)
