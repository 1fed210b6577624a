"""The host↔device boundary of the stacked detection kernels.

The stacked tensor walk (§5.2 of the paper: thousands of independent
(subcarrier x path) processing elements mapped onto wide parallel
hardware) computes with numpy, and where a native object is available
(:mod:`repro.native`) in one compiled call per group.  What it still
threads through as ``xp`` is the one seam a device would need, and that
a test fake stands in for today: where arrays enter and leave.

:meth:`ArrayModule.asarray` is the host→device entry point and
:meth:`ArrayModule.to_numpy` the device→host exit, so wrapping the
module in :class:`CountingArrayModule` meters every transfer the
kernels perform (:class:`TransferStats`) — the *fake device* the
residency tests pin their zero-warm-upload claim on, and the one the
benchmark's ``xp.*_bytes_per_block`` rows count with.  Host constants
(LUTs, constellation tables) cross once per module through
:class:`DeviceConstantCache`.

This module lives under ``repro.utils`` so the kernel layers
(:mod:`repro.flexcore`, :mod:`repro.modulation`) can import it without
pulling in the runtime package; :mod:`repro.runtime` re-exports the
user-facing names.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


class ArrayModule:
    """Where the kernels' arrays cross between host and device.

    Attributes
    ----------
    name:
        ``"numpy"``, or ``"counting[numpy]"`` for the metering fake.
    """

    name = "array"

    def asarray(self, a, dtype=None):
        """Bring ``a`` onto this module — the host→device entry point.

        Transfer accounting (:class:`CountingArrayModule`) meters every
        ``asarray`` of a host numpy array as an upload, so kernels call
        it only at genuine host→device boundaries.
        """
        raise NotImplementedError

    def to_numpy(self, a):
        """Return ``a`` as a host numpy array (no-op for numpy).

        The device→host exit point: transfer accounting meters every
        call as one download.
        """
        raise NotImplementedError

    def transfer_stats(self) -> "TransferStats | None":
        """Cumulative transfer counters, or ``None`` when not metered.

        Only :class:`CountingArrayModule` meters transfers; plain
        modules return ``None`` so callers can cheaply probe whether
        accounting is on.
        """
        return None


class NumpyArrayModule(ArrayModule):
    """Host memory is the device: both crossings are ``np.asarray``."""

    name = "numpy"

    def asarray(self, a, dtype=None):
        return np.asarray(a, dtype=dtype)

    def to_numpy(self, a):
        return np.asarray(a)


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
    """Transfer-metering wrapper over an array module.

    Every :meth:`asarray` whose operand is a host numpy array counts as
    one upload of ``nbytes``; every :meth:`to_numpy` counts as one
    download.  Kernels written with the asarray-at-the-boundary
    discipline are therefore metered exactly at their host↔device
    crossings.
    """

    def __init__(self, inner: "str | ArrayModule | None" = None):
        inner = resolve_array_module(inner)
        self.inner = inner
        self.name = f"counting[{inner.name}]"
        self.uploads = 0
        self.upload_bytes = 0
        self.downloads = 0
        self.download_bytes = 0

    def asarray(self, a, dtype=None):
        if isinstance(a, np.ndarray):
            self.uploads += 1
            self.upload_bytes += int(a.nbytes)
        return self.inner.asarray(a, dtype=dtype)

    def to_numpy(self, a):
        out = self.inner.to_numpy(a)
        self.downloads += 1
        self.download_bytes += int(np.asarray(out).nbytes)
        return out

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


_NUMPY = NumpyArrayModule()


def resolve_array_module(spec=None) -> ArrayModule:
    """``spec`` as an array module: an :class:`ArrayModule` is returned
    as is, ``"numpy"`` or ``None`` is the numpy module, and anything
    else raises :class:`~repro.errors.ConfigurationError`."""
    if isinstance(spec, ArrayModule):
        return spec
    if spec is None or spec == "numpy":
        return _NUMPY
    raise ConfigurationError(
        f"unknown array module {spec!r}: numpy is the only one"
    )


def default_array_module() -> ArrayModule:
    """The module an ``array`` backend built without one uses: numpy."""
    return _NUMPY
