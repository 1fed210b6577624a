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
  coherence block as one ``(S, F, P, Nt)`` tensor on a pluggable array
  module (numpy default, cupy/torch via ``REPRO_ARRAY_BACKEND`` — see
  :mod:`repro.utils.xp`), which is the paper's actual execution model —
  every (subcarrier x path) processing element in flight at once (§3.2,
  §5.2).  Owns the array module and the device-resident context store.

The paper's other parallel axis — subcarrier ranges spread across
devices (§5.2) — is not a backend: :mod:`repro.farm` is the one
multi-process mechanism, supervising worker processes that each run a
whole stack on one of these backends.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.utils.xp import ArrayModule, default_array_module, resolve_array_module


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
    """Stacked tensor-walk execution on a pluggable array module.

    Contexts for the whole batch are prepared through the cache (cache
    misses factorised by one stacked QR) and detectors with a block
    kernel (:attr:`repro.detectors.base.Detector.has_block_kernel`) walk
    all subcarriers of equal path count as a single ``(S, F, P, Nt)``
    tensor.  Detectors without one run the same per-subcarrier loop
    :class:`SerialBackend` selects — the backend is always safe to pick.

    Parameters
    ----------
    array_module:
        An :class:`~repro.utils.xp.ArrayModule`, a name (``"numpy"``,
        ``"cupy"``, ``"torch"``), or ``None`` to honour the
        ``REPRO_ARRAY_BACKEND`` environment variable (numpy when unset).
    residency:
        Keep stacked context tensors device-resident across calls (a
        :class:`~repro.runtime.residency.ResidentContextStore` shared by
        every cell on this backend).  On by default: warm coherence-cache
        hits then upload zero context bytes.  Turn off to rebuild the
        stacks every call (the pre-residency behaviour; results are
        identical either way).
    max_resident_groups:
        Capacity of the resident store (LRU over context groups).
    """

    name = "array"

    def __init__(
        self,
        array_module: "str | ArrayModule | None" = None,
        residency: bool = True,
        max_resident_groups: int = 256,
    ):
        if array_module is None:
            self.array_module = default_array_module()
        else:
            self.array_module = resolve_array_module(array_module)
        if residency:
            from repro.runtime.residency import ResidentContextStore

            self.resident_store = ResidentContextStore(
                max_groups=max_resident_groups
            )
        else:
            self.resident_store = None

    @property
    def residency(self) -> bool:
        return self.resident_store is not None

    def close(self) -> None:
        if self.resident_store is not None:
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
