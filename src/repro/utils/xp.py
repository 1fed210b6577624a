"""Array-module abstraction behind the stacked detection kernels.

The stacked tensor-walk (§5.2 of the paper: thousands of independent
(subcarrier x path) processing elements mapped onto wide parallel
hardware) is written once against the small numpy-flavoured API below and
runs unchanged on any array library that implements it:

* ``numpy`` — the default and the bit-exactness reference; every wrapper
  is a direct delegation, so kernels behave identically to hand-written
  numpy code.
* ``cupy`` — numpy-compatible device arrays; resolved lazily so CUDA is
  never a hard dependency.
* ``torch`` — a thin adapter translating the handful of API differences
  (``astype`` vs ``Tensor.to``, ``take_along_axis`` vs ``gather`` …).

Selection: pass an :class:`ArrayModule` (or its name) explicitly, or set
the ``REPRO_ARRAY_BACKEND`` environment variable; unset means numpy.
Modules are resolved lazily and cached (including failed imports, so a
missing optional library is probed at most once), and merely importing
this file never imports cupy or torch.

Transfer accounting: :func:`ArrayModule.asarray` is the host→device
entry point and :func:`ArrayModule.to_numpy` the device→host exit, so
wrapping any module in :class:`CountingArrayModule` meters every
transfer the kernels perform (:class:`TransferStats`).  Device-side
dtype/array normalisation that must never count as a transfer goes
through :func:`ArrayModule.ensure` instead.  Host constants (LUTs,
constellation tables) are uploaded once per module through
:class:`DeviceConstantCache`.

This module lives under ``repro.utils`` so the kernel layers
(:mod:`repro.flexcore`, :mod:`repro.modulation`) can import it without
pulling in the runtime package; :mod:`repro.runtime` re-exports the
user-facing names.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass

import numpy as _host_np

from repro import native
from repro.errors import ConfigurationError

#: Environment variable naming the default array module.
ARRAY_BACKEND_ENV = "REPRO_ARRAY_BACKEND"


class ArrayModule:
    """Numpy-flavoured facade over one array library.

    Attributes
    ----------
    name:
        Registry name (``"numpy"``, ``"cupy"``, ``"torch"``).
    complex128, float64, int64, uint8, bool_:
        The library's dtype objects for the five dtypes the kernels use.
    inf:
        Positive infinity as a host scalar.
    """

    name = "array"

    # -- conversion ----------------------------------------------------
    def asarray(self, a, dtype=None):
        """Bring ``a`` onto this module — the host→device entry point.

        Transfer accounting (:class:`CountingArrayModule`) meters every
        ``asarray`` of a host numpy array as an upload, so kernels call
        it only at genuine host→device boundaries; for device-side
        normalisation use :meth:`ensure`.
        """
        raise NotImplementedError

    def astype(self, a, dtype):
        raise NotImplementedError

    def to_numpy(self, a):
        """Return ``a`` as a host numpy array (no-op for numpy).

        The device→host exit point: transfer accounting meters every
        call as one download.
        """
        raise NotImplementedError

    def ensure(self, a, dtype=None):
        """Normalise an already-device value (dtype cast, scalar wrap).

        Same semantics as :meth:`asarray` but *never* counted as a
        transfer — kernels use it where the operand is known to live on
        the module already (or is a scalar) and only its dtype/arrayness
        needs normalising.
        """
        return self.asarray(a, dtype=dtype)

    def transfer_stats(self) -> "TransferStats | None":
        """Cumulative transfer counters, or ``None`` when not metered.

        Only :class:`CountingArrayModule` meters transfers; plain
        modules return ``None`` so callers can cheaply probe whether
        accounting is on.
        """
        return None


class NumpyArrayModule(ArrayModule):
    """The reference module: every method delegates straight to numpy,
    so kernels written against it are bit-identical to plain numpy code."""

    name = "numpy"

    def __init__(self):
        import numpy

        self._np = numpy
        self.complex128 = numpy.complex128
        self.float64 = numpy.float64
        self.int64 = numpy.int64
        self.uint8 = numpy.uint8
        self.bool_ = numpy.bool_
        self.inf = float("inf")

    # -- conversion ----------------------------------------------------
    def asarray(self, a, dtype=None):
        return self._np.asarray(a, dtype=dtype)

    def astype(self, a, dtype):
        return a.astype(dtype)

    def to_numpy(self, a):
        return self._np.asarray(a)

    # -- creation ------------------------------------------------------
    def zeros(self, shape, dtype=None):
        return self._np.zeros(shape, dtype=dtype)

    def empty(self, shape, dtype=None):
        return self._np.empty(shape, dtype=dtype)

    def arange(self, n):
        return self._np.arange(n)

    # -- manipulation --------------------------------------------------
    def where(self, condition, a, b):
        return self._np.where(condition, a, b)

    def broadcast_to(self, a, shape):
        return self._np.broadcast_to(a, shape)

    def stack(self, arrays, axis=0):
        return self._np.stack(arrays, axis=axis)

    def take_along_axis(self, a, indices, axis):
        return self._np.take_along_axis(a, indices, axis=axis)

    def take(self, a, indices, out=None):
        """``a.reshape(-1)[indices]``; indices are the caller's to keep
        in range (``mode="clip"`` is what lets numpy write ``out``
        unbuffered)."""
        return self._np.take(a, indices, out=out, mode="clip")

    # -- math ----------------------------------------------------------
    # ``out`` is where the walk's level loop puts every result: a view
    # of its workspace, so a warm walk allocates nothing.
    def matmul(self, a, b, out=None):
        return self._np.matmul(a, b, out=out)

    def add(self, a, b, out=None):
        return self._np.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return self._np.subtract(a, b, out=out)

    def multiply(self, a, b, out=None):
        return self._np.multiply(a, b, out=out)

    def greater(self, a, b, out=None):
        return self._np.greater(a, b, out=out)

    def not_equal(self, a, b, out=None):
        return self._np.not_equal(a, b, out=out)

    def bitwise_and(self, a, b, out=None):
        return self._np.bitwise_and(a, b, out=out)

    def copysign(self, magnitude, sign, out=None):
        return self._np.copysign(magnitude, sign, out=out)

    def abs(self, a, out=None):
        return self._np.abs(a, out=out)

    def round(self, a, out=None):
        """Nearest integer, ties to even."""
        return self._np.rint(a, out=out)

    def clip(self, a, lo, hi, out=None):
        return self._np.clip(a, lo, hi, out=out)

    def argmin(self, a, axis):
        """First index of the minimum (of the first ``False`` for bool)."""
        return self._np.argmin(a, axis=axis)

    def argmax(self, a, axis):
        """First index of the maximum (of the first ``True`` for bool)."""
        return self._np.argmax(a, axis=axis)

    def argsort(self, a, axis=-1, stable=False):
        """``stable`` keeps equal keys in index order, so element 0 of
        the result is the first-occurrence arg-min."""
        return self._np.argsort(
            a, axis=axis, kind="stable" if stable else None
        )

    def isfinite(self, a):
        return self._np.isfinite(a)

    def count_nonzero(self, a, axis=None):
        return self._np.count_nonzero(a, axis=axis)

    def real(self, a):
        return self._np.real(a)

    def imag(self, a):
        return self._np.imag(a)

    # -- the fused walk ------------------------------------------------
    @property
    def walk_tile(self):
        """The walk's one fused op — every level of a ``(G, F, P)`` tile in
        a single GIL-free native call, ``walk_tile(half, rows, weights,
        offsets, swap_delta, clamp, edge, symbols, ped, dead, scratch)``
        (:mod:`repro.native`) — or ``None`` where there is no native
        lane and the caller walks level by level.  numpy only."""
        return native.kernel()

    @property
    def detect_group(self):
        """The same lane's other entry point, from the same compiled
        object: an equal-path group walked *and decided* in one GIL-free
        call — indices in stream order, max-log LLRs, per-subcarrier
        counters; no candidate tensor is written back (:mod:`repro.native`
        documents the arguments).  ``None`` wherever :attr:`walk_tile` is."""
        return getattr(self.walk_tile, "detect_group", None)


class CupyArrayModule(NumpyArrayModule):
    """CuPy shares numpy's API; only conversion crosses the device."""

    name = "cupy"
    walk_tile = detect_group = None

    def __init__(self):
        import cupy

        self._np = cupy
        self.complex128 = cupy.complex128
        self.float64 = cupy.float64
        self.int64 = cupy.int64
        self.uint8 = cupy.uint8
        self.bool_ = cupy.bool_
        self.inf = float("inf")

    def to_numpy(self, a):
        return self._np.asnumpy(a)

    def take(self, a, indices, out=None):
        # cupy's take has no ``mode`` (and nothing to buffer).
        return self._np.take(a, indices, out=out)

    def argsort(self, a, axis=-1, stable=False):
        # cupy's only sort is a stable one and it takes no ``kind``.
        return self._np.argsort(a, axis=axis)


class TorchArrayModule(ArrayModule):
    """Adapter mapping the kernel API onto torch tensors (CPU device)."""

    name = "torch"
    walk_tile = detect_group = None

    def __init__(self):
        import torch

        self._torch = torch
        self.complex128 = torch.complex128
        self.float64 = torch.float64
        self.int64 = torch.int64
        self.uint8 = torch.uint8
        self.bool_ = torch.bool
        self.inf = float("inf")

    # -- conversion ----------------------------------------------------
    def asarray(self, a, dtype=None):
        torch = self._torch
        tensor = a if isinstance(a, torch.Tensor) else torch.as_tensor(a)
        if dtype is not None and tensor.dtype != dtype:
            tensor = tensor.to(dtype)
        return tensor

    def astype(self, a, dtype):
        return a.to(dtype)

    def to_numpy(self, a):
        return a.resolve_conj().detach().cpu().numpy()

    # -- creation ------------------------------------------------------
    def zeros(self, shape, dtype=None):
        return self._torch.zeros(shape, dtype=dtype)

    def empty(self, shape, dtype=None):
        return self._torch.empty(shape, dtype=dtype)

    def arange(self, n):
        return self._torch.arange(n)

    # -- manipulation --------------------------------------------------
    def where(self, condition, a, b):
        torch = self._torch
        # torch.where needs at least one tensor operand; numpy accepts
        # two scalars (e.g. where(dx >= 0, 1, -1)).
        if not isinstance(a, torch.Tensor) and not isinstance(b, torch.Tensor):
            a = torch.as_tensor(a)
            b = torch.as_tensor(b, dtype=a.dtype)
        return torch.where(condition, a, b)

    def broadcast_to(self, a, shape):
        return self._torch.broadcast_to(a, shape)

    def stack(self, arrays, axis=0):
        return self._torch.stack(list(arrays), dim=axis)

    def take_along_axis(self, a, indices, axis):
        # Kernels pre-broadcast ``indices``, so gather's same-ndim
        # contract always holds.
        return self._torch.gather(a, axis, indices)

    def take(self, a, indices, out=None):
        return self._torch.take(a, indices, out=out)

    # -- math ----------------------------------------------------------
    def matmul(self, a, b, out=None):
        return self._torch.matmul(a, b, out=out)

    def add(self, a, b, out=None):
        return self._torch.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return self._torch.sub(a, b, out=out)

    def multiply(self, a, b, out=None):
        return self._torch.mul(a, b, out=out)

    def greater(self, a, b, out=None):
        # The walk wants its 0/1 flag as a float; compare into bool and
        # let copy_ convert rather than rely on gt's handling of ``out``.
        if out is None or out.dtype == self._torch.bool:
            return self._torch.gt(a, b, out=out)
        return out.copy_(self._torch.gt(a, b))

    def not_equal(self, a, b, out=None):
        return self._torch.ne(a, b, out=out)

    def bitwise_and(self, a, b, out=None):
        return self._torch.bitwise_and(a, b, out=out)

    def copysign(self, magnitude, sign, out=None):
        # torch wants a tensor magnitude: fill the result with the
        # scalar, then sign it in place.
        if out is None:
            out = self._torch.empty_like(sign)
        out.fill_(magnitude)
        return self._torch.copysign(out, sign, out=out)

    def abs(self, a, out=None):
        return self._torch.abs(a, out=out)

    def round(self, a, out=None):
        return self._torch.round(a, out=out)

    def clip(self, a, lo, hi, out=None):
        return self._torch.clip(a, lo, hi, out=out)

    def _ordered(self, a):
        # torch has no bool argmin/argmax kernels.
        return a.to(self._torch.uint8) if a.dtype == self._torch.bool else a

    def argmin(self, a, axis):
        return self._torch.argmin(self._ordered(a), dim=axis)

    def argmax(self, a, axis):
        return self._torch.argmax(self._ordered(a), dim=axis)

    def argsort(self, a, axis=-1, stable=False):
        return self._torch.sort(a, dim=axis, stable=stable).indices

    def isfinite(self, a):
        return self._torch.isfinite(a)

    def count_nonzero(self, a, axis=None):
        if axis is None:
            return self._torch.count_nonzero(a)
        return self._torch.count_nonzero(a, dim=axis)

    def real(self, a):
        return self._torch.real(a)

    def imag(self, a):
        return self._torch.imag(a)


@dataclass(frozen=True)
class TransferStats:
    """Point-in-time snapshot of host↔device transfer counters.

    ``uploads``/``upload_bytes`` meter :meth:`ArrayModule.asarray` calls
    that handed a host numpy array to the module; ``downloads``/
    ``download_bytes`` meter :meth:`ArrayModule.to_numpy` calls.  Like
    :class:`~repro.runtime.cache.CacheStats`, snapshots subtract
    (:meth:`since`) to give per-batch deltas, which is how the runtime
    surfaces them in ``stats["transfers"]``.
    """

    uploads: int = 0
    upload_bytes: int = 0
    downloads: int = 0
    download_bytes: int = 0

    def since(self, before: "TransferStats") -> "TransferStats":
        """Counter deltas relative to an earlier snapshot."""
        return TransferStats(
            uploads=self.uploads - before.uploads,
            upload_bytes=self.upload_bytes - before.upload_bytes,
            downloads=self.downloads - before.downloads,
            download_bytes=self.download_bytes - before.download_bytes,
        )


class CountingArrayModule(ArrayModule):
    """Transfer-metering wrapper usable over any array module.

    Every :meth:`asarray` whose operand is a host numpy array counts as
    one upload of ``nbytes``; every :meth:`to_numpy` counts as one
    download.  :meth:`ensure` and all other operations delegate to the
    wrapped module uncounted, so kernels written with the
    asarray-at-the-boundary discipline are metered exactly at their
    host↔device crossings — including under the numpy module, where the
    wrapper acts as the *fake device* the residency tests pin their
    zero-warm-upload claim on.
    """

    def __init__(self, inner: "str | ArrayModule | None" = None):
        inner = resolve_array_module(inner)
        self.inner = inner
        self.name = f"counting[{inner.name}]"
        self.uploads = 0
        self.upload_bytes = 0
        self.downloads = 0
        self.download_bytes = 0

    def __getattr__(self, attr):
        # dtypes, creation, manipulation and math all pass through; only
        # the conversion boundary (defined on the base class, so never
        # reached here) is intercepted.
        return getattr(self.inner, attr)

    # -- conversion (the metered boundary) -----------------------------
    def asarray(self, a, dtype=None):
        if isinstance(a, _host_np.ndarray):
            self.uploads += 1
            self.upload_bytes += int(a.nbytes)
        return self.inner.asarray(a, dtype=dtype)

    def astype(self, a, dtype):
        return self.inner.astype(a, dtype)

    def to_numpy(self, a):
        out = self.inner.to_numpy(a)
        self.downloads += 1
        self.download_bytes += int(_host_np.asarray(out).nbytes)
        return out

    def ensure(self, a, dtype=None):
        return self.inner.ensure(a, dtype=dtype)

    # -- accounting ----------------------------------------------------
    def transfer_stats(self) -> TransferStats:
        return TransferStats(
            uploads=self.uploads,
            upload_bytes=self.upload_bytes,
            downloads=self.downloads,
            download_bytes=self.download_bytes,
        )


class DeviceConstantCache:
    """Per-module device copies of immutable host constants.

    Owners of offline tables (the triangle LUT, constellation points,
    Gray tables, bit tables) keep one of these next to the host array
    and fetch the device copy with :meth:`get` — the upload happens on
    the first call per array module and never again, which is what makes
    the kernels' warm path free of constant re-uploads.  Modules are
    held weakly, so a discarded wrapper releases its device copies.
    """

    def __init__(self):
        self._per_module: "weakref.WeakKeyDictionary[ArrayModule, dict]" = (
            weakref.WeakKeyDictionary()
        )

    def __reduce__(self):
        # Owners (detectors, LUTs) stay picklable, but device copies
        # never travel: they are per-process state, so the cache pickles
        # empty and re-uploads lazily wherever it lands.
        return (DeviceConstantCache, ())

    def get(self, xp: ArrayModule, host):
        """The device copy of ``host`` on ``xp`` (uploaded at most once).

        ``host`` must be an immutable array owned by the same object
        that owns this cache (entries are keyed by identity, valid for
        the owner's lifetime).
        """
        per = self._per_module.get(xp)
        if per is None:
            per = {}
            self._per_module[xp] = per
        device = per.get(id(host))
        if device is None:
            device = xp.asarray(host)
            per[id(host)] = device
        return device


_FACTORIES = {
    "numpy": NumpyArrayModule,
    "cupy": CupyArrayModule,
    "torch": TorchArrayModule,
}
_MODULES: dict[str, ArrayModule] = {}
#: Names whose import already failed once — resolved straight to the
#: cached error instead of re-attempting the (slow) missing import.
_IMPORT_ERRORS: dict[str, str] = {}


def resolve_array_module(spec=None) -> ArrayModule:
    """Resolve an array module by name or instance.

    ``spec`` may be an :class:`ArrayModule` (returned as-is), a registry
    name, or ``None`` — which means numpy: kernels called without an
    explicit module always behave like plain numpy code.  The
    ``REPRO_ARRAY_BACKEND`` environment knob is consulted only where a
    *backend* is being configured — see :func:`default_array_module`.
    Optional libraries are imported lazily on first resolution; a missing
    library raises :class:`~repro.errors.ConfigurationError` with the
    failing import in the message.
    """
    if isinstance(spec, ArrayModule):
        return spec
    if spec is None:
        spec = "numpy"
    name = str(spec).strip().lower()
    module = _MODULES.get(name)
    if module is not None:
        return module
    failure = _IMPORT_ERRORS.get(name)
    if failure is not None:
        raise ConfigurationError(failure)
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown array module {spec!r}; "
            f"options: {tuple(sorted(_FACTORIES))}"
        ) from None
    try:
        module = factory()
    except ImportError as error:
        message = (
            f"array module {name!r} is not importable here ({error}); "
            f"install it or unset {ARRAY_BACKEND_ENV}"
        )
        # Negative cache: probing a missing optional library is slow
        # (a full failed import), and available_array_modules() probes
        # every registered name — remember the failure so each library
        # is attempted at most once per process.
        _IMPORT_ERRORS[name] = message
        raise ConfigurationError(message) from None
    _MODULES[name] = module
    return module


def default_array_module() -> ArrayModule:
    """The module named by ``REPRO_ARRAY_BACKEND`` (numpy when unset).

    This is the configuration-level entry point the ``"array"`` execution
    backend uses when built without an explicit module; per-call kernel
    defaults deliberately stay numpy regardless of the environment.
    """
    return resolve_array_module(os.environ.get(ARRAY_BACKEND_ENV) or "numpy")


def available_array_modules() -> tuple[str, ...]:
    """Names of the array modules importable in this environment."""
    names = []
    for name in sorted(_FACTORIES):
        try:
            resolve_array_module(name)
        except ConfigurationError:
            continue
        names.append(name)
    return tuple(names)
