"""Execution backends: where a batch's subcarrier shards actually run.

The engine splits an uplink batch into contiguous subcarrier shards and
hands (worker, shards) to a backend.  ``serial`` runs them in-process —
one vectorised kernel call per subcarrier.  ``process-pool`` forks
workers and maps shards across them, the software analogue of the
paper's multi-GPU "one device per subcarrier range" sharding (§5.2); it
pays one detector pickle per shard, so it wins only when per-shard work
dominates — exactly the regime of large constellations and many paths.
``array`` dispenses with shards entirely: detectors providing a stacked
kernel walk the whole coherence block as one ``(S, F, P, Nt)`` tensor on
a pluggable array module (numpy default, cupy/torch via
``REPRO_ARRAY_BACKEND`` — see :mod:`repro.utils.xp`), which is the
paper's actual execution model — every (subcarrier x path) processing
element in flight at once.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.errors import ConfigurationError, WorkerCrashError
from repro.utils.xp import ArrayModule, default_array_module, resolve_array_module


class ExecutionBackend(abc.ABC):
    """Maps a picklable worker over shard payloads, preserving order."""

    name: str = "backend"

    @abc.abstractmethod
    def run(self, worker: Callable, payloads: Sequence) -> list:
        """Apply ``worker`` to every payload; results in payload order."""

    @property
    def num_shards_hint(self) -> int:
        """How many shards the engine should cut a batch into."""
        return 1

    def close(self) -> None:
        """Release worker resources (no-op for in-process backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution; shares the engine's cross-call context cache."""

    name = "serial"

    def run(self, worker: Callable, payloads: Sequence) -> list:
        return [worker(payload) for payload in payloads]


class ProcessPoolBackend(ExecutionBackend):
    """Shards subcarriers across a pool of worker processes.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8 (beyond
        that the pickle/IPC overhead of shipping channel blocks dwarfs
        the detection work at link-simulation scales).

    Notes
    -----
    Workers are fresh processes and hold no state: the engine prepares
    contexts in the parent (through its persistent coherence cache) and
    ships them inside each shard payload, so cross-call amortisation is
    identical to the serial backend; workers only run the detection
    walk.
    """

    name = "process-pool"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        self.max_workers = max_workers or min(os.cpu_count() or 1, 8)
        self._executor: ProcessPoolExecutor | None = None
        self._broken_index: "int | None" = None

    @property
    def num_shards_hint(self) -> int:
        return self.max_workers

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def _map(self, worker: Callable, payloads: list) -> list:
        # submit (not Executor.map) so a broken pool identifies which
        # payload's result was lost.
        pool = self._pool()
        futures = [pool.submit(worker, payload) for payload in payloads]
        results = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool:
                self._broken_index = index
                raise
        return results

    def run(self, worker: Callable, payloads: Sequence) -> list:
        payloads = list(payloads)
        if len(payloads) <= 1:
            # One shard: the pool round-trip buys nothing.
            return [worker(payload) for payload in payloads]
        try:
            return self._map(worker, payloads)
        except BrokenProcessPool:
            # A worker killed mid-task (OOM-killer, SIGKILL, segfault)
            # poisons the whole executor: every later submit would raise
            # too.  Tear it down and retry the batch once on a fresh
            # pool; if that breaks as well the work itself is lethal.
            self.close()
            try:
                return self._map(worker, payloads)
            except BrokenProcessPool as error:
                index = self._broken_index
                self.close()
                raise WorkerCrashError(
                    f"process-pool worker died twice running this batch "
                    f"(first lost result: payload {index} of "
                    f"{len(payloads)}); the pool was rebuilt once and "
                    "broke again, so the payload itself is suspect",
                    payload_index=index,
                ) from error

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


class ArrayBackend(ExecutionBackend):
    """Stacked tensor-walk execution on a pluggable array module.

    The engine bypasses sharding for this backend: contexts for the whole
    batch are prepared through the cache (cache misses factorised by one
    stacked QR) and detectors with a block kernel
    (:attr:`repro.detectors.base.Detector.has_block_kernel`) walk all
    subcarriers of equal path count as a single ``(S, F, P, Nt)`` tensor.
    Detectors without one fall back to the serial per-subcarrier loop —
    the backend is always safe to select.

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

    def run(self, worker: Callable, payloads: Sequence) -> list:
        # Satisfies the ExecutionBackend ABC only: the engine dispatches
        # ArrayBackend batches straight to its stacked path (including
        # the in-process loop for detectors without a block kernel) and
        # never calls run().
        return [worker(payload) for payload in payloads]


_BACKENDS = {
    "serial": SerialBackend,
    "process-pool": ProcessPoolBackend,
    "process": ProcessPoolBackend,
    "array": ArrayBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_backend`."""
    return tuple(sorted(set(_BACKENDS)))


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
