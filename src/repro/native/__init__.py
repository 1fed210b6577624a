"""The native lane: ``walk.c``, ``search.c``, ``qr.c`` and ``plan.c``
built as one object with the system compiler on first use, cached on
disk, loaded through :mod:`ctypes` — no new dependency, no binary checked
in, and every failure is the portable lane.

:func:`kernel` holds the object's four entry points, or is ``None``:
the one lane switch.  Its ``detect_group`` is what the detectors take:
a whole group walked and decided in one GIL-free call, only indices,
LLRs and counters written back.  Its ``tree_search`` is what
:func:`~repro.flexcore.preprocessing.find_promising_paths_block`
takes: every channel's §3.1.1 best-first heap in one call.  Its
``sorted_qr`` is what :func:`~repro.mimo.qr.stacked_sorted_qr` (and so
``sorted_qr``) takes: a block's Wübben sorted QR in one call.  Its
``build_plan`` is what ``FlexCoreDetector._build_plan`` takes: a group's
walk plan, LUT offsets included, written from the block's rows in one
call.  The lane is
resolved once per process and never at import: a ``DetectionService``
resolves it when it is constructed — a 0.2-1 s compile must not land in
a slot's flush — and a bare ``detect_prepared`` caller pays on its first
walk.  :func:`status` (``python -m repro.native``) says which lane the
process took and why: a silent fallback is a 4x regression nobody sees.

**Processing elements.**  The native lane also owns this process's PE
pool: :func:`pes` CPUs — ``os.sched_getaffinity``, resolved with the
lane; the portable lane's level loop holds the GIL and has one — and
:func:`fan_out`, which walks all but one of a group's subcarrier runs
on :func:`pool`'s ``pes() - 1`` threads while the caller walks the
first.  A run is worth a thread only above :data:`RUN_FLOPS` of walk.
A child forked after the pool started builds its own on first use.

**Compiler.**  ``CC`` when it is set, found or not; else ``cc`` / ``gcc``
/ ``clang`` on ``PATH``.  ``CC=false`` is how CI and an operator force
the portable lane; there is no other knob.  Never a fast-math flag.
**Cache key.**  sha256 over both sources, the flags, the compiler's path,
size and mtime, the machine and the CPU-flags line of ``/proc/cpuinfo``:
a home shared across hosts never loads another CPU's ``-march=native``
object.  Objects are built under a temporary name and ``os.replace``-d
into place, so processes racing a cold cache all succeed and none
overwrites what another has mapped; one that does not load is rebuilt
once.  **Trust rule.**  We ``dlopen`` what is in the cache directory, so
it is created 0700 and refused unless it is the caller's own and not
group- or world-writable: ``$XDG_CACHE_HOME`` or ``~/.cache``
``/repro-flexcore``, else the temp directory's ``repro-flexcore-<uid>``,
else a per-process ``mkdtemp``.  No compiler, a compile or load error,
nowhere to write: one ``RuntimeWarning`` with the reason.
"""

from __future__ import annotations

import _ctypes
import concurrent.futures
import ctypes
import hashlib
import operator
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time
import types
import warnings
from importlib import resources

import numpy as np

FLAGS = (
    "-O3", "-march=native", "-fno-math-errno", "-fno-trapping-math",
    "-ffp-contract=off", "-shared", "-fPIC",
)  # fmt: skip
_LOCK = threading.Lock()
#: This process's lane: ``(status dict, kernel or None)`` once resolved.
_RESOLVED = None
#: The least walk, in FLOPs, a subcarrier run must carry to go to another
#: PE: ~330 us at the kernel's ~12 GFLOP/s, against a hand-off of tens
#: (the sweep is in CHANGES.md).
RUN_FLOPS = 4_000_000
#: :func:`pool`'s executor once started.
_POOL = None


def _compiler(environ) -> "list[str] | None":
    chosen = environ.get("CC", "").split()
    for words in [chosen] if chosen else [["cc"], ["gcc"], ["clang"]]:
        path = shutil.which(words[0], path=environ.get("PATH"))
        if path is not None:
            return [path, *words[1:]]
    return None


def _cache_dir(environ) -> "str | None":
    """The first candidate directory that passes the trust rule."""
    home = environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    shared = os.path.join(tempfile.gettempdir(), f"repro-flexcore-{os.getuid()}")
    for path in (os.path.join(home, "repro-flexcore"), shared):
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            owner = os.stat(path)
        except OSError:
            continue
        ours = owner.st_uid == os.getuid() and not owner.st_mode & 0o022
        if ours and os.access(path, os.W_OK | os.X_OK):
            return path
    return None


def _key(source: bytes, compiler: "list[str]") -> str:
    binary = os.stat(compiler[0])
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as lines:
            cpu = next((line for line in lines if line.startswith("flags")), "")
    parts = (*FLAGS, *compiler, binary.st_size, binary.st_mtime_ns, platform.machine(), cpu)
    return hashlib.sha256(source + repr(parts).encode()).hexdigest()[:32]


def _build(source: bytes, compiler: "list[str]", target: str) -> None:
    handle, temporary = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".so")
    os.close(handle)
    try:
        done = subprocess.run(
            [*compiler, *FLAGS, "-x", "c", "-", "-o", temporary],
            input=source, capture_output=True, timeout=60,
        )  # fmt: skip
        if done.returncode:
            tail = done.stderr.decode(errors="replace")[-300:].strip()
            raise OSError(f"{compiler[0]} exited {done.returncode}: {tail}")
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


#: The sources compiled, in this order, into the one object.
SOURCES = ("walk.c", "search.c", "qr.c", "plan.c")
#: The entry points of that object: a cached one lacking any is stale.
ENTRY_POINTS = (
    "flexcore_detect_group", "flexcore_tree_search", "flexcore_sorted_qr", "flexcore_build_plan"
)  # fmt: skip


def _source() -> bytes:
    """What is piped to the compiler and hashed: every source, one unit."""
    return b"".join(resources.files(__name__).joinpath(name).read_bytes() for name in SOURCES)


def _load(path: str) -> tuple:
    library = ctypes.CDLL(path)
    try:
        group, search, qr, plan = (getattr(library, name) for name in ENTRY_POINTS)
    except AttributeError:
        # Unmap it, or what is rebuilt at this path loads as this object again.
        _ctypes.dlclose(library._handle)
        raise
    pointer, real = ctypes.c_void_p, ctypes.c_double
    group.argtypes = [pointer] * 6 + [real, real] + [pointer] * 2 + [real, real] + [pointer] * 4
    search.argtypes = [pointer] * 8
    qr.argtypes = [pointer] * 5
    plan.argtypes = [pointer] * 8 + [real, real] + [pointer] * 8
    group.restype = search.restype = qr.restype = None
    plan.restype = ctypes.c_int64
    return group, search, qr, plan


def _resolve(environ=os.environ) -> tuple:
    """Build or load the kernel: ``(status, kernel or None)``."""
    status = dict(lane="portable", compiler=None, flags=" ".join(FLAGS), cache=None,
                  build_s=0.0, reason=None, entry_points=[], pes=1, run_flops=RUN_FLOPS)  # fmt: skip
    private = None
    try:
        compiler = _compiler(environ)
        if compiler is None:
            raise OSError(f"no C compiler (CC={environ.get('CC')!r}, else cc, gcc, clang)")
        status["compiler"] = " ".join(compiler)
        source = _source()
        directory = _cache_dir(environ)
        if directory is None:
            directory = private = tempfile.mkdtemp(prefix="repro-flexcore-")
        status["cache"] = target = os.path.join(directory, _key(source, compiler) + ".so")
        functions = None
        if os.path.exists(target):
            try:
                functions = _load(target)
            except (OSError, AttributeError):
                pass  # a truncated object, or one missing a symbol: rebuild, once
        if functions is None:
            start = time.perf_counter()
            _build(source, compiler, target)
            status["build_s"] = time.perf_counter() - start
            functions = _load(target)
        pes = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        status.update(lane="native", entry_points=list(ENTRY_POINTS), pes=pes)
        return status, _bind(*functions)
    except Exception as error:  # every failure is the portable lane
        status["reason"] = f"{type(error).__name__}: {error}"
        warnings.warn(f"repro.native: portable lane: {status['reason']}", RuntimeWarning)
        return status, None
    finally:
        if private is not None:  # a loaded object outlives its file
            shutil.rmtree(private, ignore_errors=True)


def _address(a: np.ndarray) -> int:
    """Where ``a``'s data starts: through the buffer protocol when that can
    export it (a third of what ``a.ctypes.data`` costs), else that."""
    if a.nbytes and a.flags.writeable and a.flags.c_contiguous:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _bind(fused, search, qr, plan) -> types.SimpleNamespace:
    """The object's four entry points as Python calls: ``detect_group``,
    the walk, ``tree_search``, the §3.1.1 search, ``sorted_qr`` and
    ``build_plan``."""

    def detect_group(half, rows, weights, offsets, swap_delta, clamp, edge, inverse,
                     table, noise_var, llr_clip, indices, llrs, counts, scratch, absolute=0):  # fmt: skip
        """What is decided from a group's candidates, none of which leave
        the call: ``indices`` ``(G, F, Nt)`` int64 read from the ``(side,
        side)`` int64 position ``table``, in the stream order ``inverse``
        ``(G, Nt)`` restores, and ``counts`` ``(G,)`` dead paths — or, with
        ``llrs`` ``(G, F, Nt * bits)`` rather than ``None``, max-log LLRs
        and clamped bits.  ``scratch`` is ``(6 + 6 Nt) P`` doubles.
        ``offsets`` / ``swap_delta`` ``(Nt, G, 1, 2, P)`` may be the views
        a plan's ``clamp`` / ``subcarriers`` make: ``dims`` carries their
        byte strides and item size.  At the top ``absolute`` levels (FCSD's
        ``L``) ``offsets`` holds each path's symbol.  No pointer leaves
        Python before every other array is contiguous and of the (native)
        type and size the kernel reads."""
        (G, F, Nt, _), P = half.shape, offsets.shape[-1]
        side, bits = len(table), (table.size - 1).bit_length()
        flat = [(half, "f8", G * F * Nt * 2), (rows, "f8", G * 4 * Nt**2),
                (weights, "f8", G * Nt), (inverse, "i8", G * Nt), (table, "i8", side * side),
                (indices, "i8", G * F * Nt), (counts, "i8", G),
                (scratch, "f8", (6 + 6 * Nt) * P)]  # fmt: skip
        if llrs is not None:
            flat.append((llrs, "f8", G * F * Nt * bits))
        if not (
            P >= 1
            and all(a.dtype == t and a.flags.c_contiguous and a.size == n for a, t, n in flat)
            and table.shape == (side, side)
            and inverse.shape == (G, Nt)
            and 0 <= inverse.min() <= inverse.max() < Nt
            and offsets.dtype.char in "bh"
            and (offsets.dtype, offsets.strides) == (swap_delta.dtype, swap_delta.strides)
            and (offsets.strides[4] == offsets.itemsize or P == 1)
            and offsets.shape == swap_delta.shape == (Nt, G, 1, 2, P)
            and 0 <= absolute <= Nt
        ):
            raise ValueError("detect_group: not the walk's layout")
        by_level, by_group, _, by_plane, _ = offsets.strides
        dims = (ctypes.c_int64 * 11)(
            G, F, Nt, P, by_level, by_group, by_plane, offsets.itemsize, side, bits, absolute
        )  # fmt: skip
        fused(dims, *map(_address, (half, rows, weights, offsets, swap_delta)),
              clamp, edge, _address(inverse), _address(table), noise_var, llr_clip,
              _address(indices), None if llrs is None else _address(llrs),
              _address(counts), _address(scratch))  # fmt: skip

    def tree_search(pe, num_paths, max_rank, batch_size, thresholds):
        """The §3.1.1 best-first heap searches of every row of ``pe``
        ``(C, Nt)`` in one call, ``thresholds`` ``(C,)``
        (``+inf``: never stop) or ``None``.  Returns ``positions`` ``(C,
        P, Nt)`` and ``probabilities`` ``(C, P)``, valid up to each
        channel's count, and ``tally`` ``(C, 4)``: paths selected,
        children pushed, peak frontier, stopped early."""
        sizes = [operator.index(n) for n in (num_paths, max_rank, batch_size)]
        if not (
            isinstance(pe, np.ndarray) and pe.dtype == np.float64 and pe.ndim == 2
            and pe.shape[1] >= 1 and pe.flags.c_contiguous and min(sizes) >= 1
            and (thresholds is None or (
                isinstance(thresholds, np.ndarray) and thresholds.dtype == np.float64
                and thresholds.shape == pe.shape[:1] and thresholds.flags.c_contiguous))
        ):  # fmt: skip
            raise ValueError("tree_search: not the search's layout")
        channels, levels = pe.shape
        paths = sizes[0]
        root = -np.prod(1.0 - pe, axis=1)
        positions = np.empty((channels, paths, levels), dtype=np.int64)
        probabilities = np.empty((channels, paths))
        tally = np.empty((channels, 4), dtype=np.int64)
        scratch = np.empty(2 * (1 + paths * (levels + 1)))  # (key, serial) pairs
        dims = (ctypes.c_int64 * 5)(channels, levels, *sizes)
        search(dims, _address(pe), _address(root),
               None if thresholds is None else _address(thresholds),
               *map(_address, (positions, probabilities, tally, scratch)))  # fmt: skip
        return positions, probabilities, tally

    def sorted_qr(work):
        """Wübben's sorted QR of every channel of ``work`` ``(C, Nr, Nt)``
        complex128, which the call overwrites with the residuals.  Returns
        ``q`` ``(C, Nr, Nt)``, ``r`` ``(C, Nt, Nt)`` and ``permutation``
        ``(C, Nt)`` int64."""
        if not (
            isinstance(work, np.ndarray) and work.dtype == np.complex128 and work.ndim == 3
            and work.shape[1] >= work.shape[2] and work.flags.c_contiguous
            and work.flags.writeable
        ):  # fmt: skip
            raise ValueError("sorted_qr: not the QR's layout")
        channels, _, streams = work.shape
        q, r = np.zeros_like(work), np.zeros((channels, streams, streams), np.complex128)
        permutation = np.empty((channels, streams), dtype=np.int64)
        qr((ctypes.c_int64 * 3)(*work.shape), *map(_address, (work, q, r, permutation)))
        return q, r, permutation

    def build_plan(q, r, diag, permutation, members, scale, positions=None, paths=0, lut=None):
        """The walk plan of rows ``members`` of a block whose QR is ``q``
        ``(C, Nr, Nt)`` and ``r`` ``(C, Nt, Nt)`` complex128, ``diag``
        ``(C, Nt)`` its real diagonal and ``permutation`` ``(C, Nt)`` int64:
        ``q_conj``, ``inverse_permutation``, ``to_grid``, ``rows`` and
        ``weights`` in the walk's layout, then — given ``positions`` ``(C,
        >= paths, Nt)`` int64 ranks and the int8 / int16 ``(max_rank + 1,
        2)`` ``lut`` — the first ``paths``' ``offsets`` and ``swap_delta``
        ``(Nt, G, 1, 2, paths)`` stacked as one array, else ``None``."""
        members = np.ascontiguousarray(members, dtype=np.int64)
        q, r, diag, permutation = map(np.ascontiguousarray, (q, r, diag, permutation))
        (C, Nr, Nt), G, stride = q.shape, len(members), 0
        flat = [(q, "c16", (C, Nr, Nt)), (r, "c16", (C, Nt, Nt)), (diag, "f8", (C, Nt)),
                (permutation, "i8", (C, Nt))]  # fmt: skip
        pair, by_path = None, [None] * 5  # positions, lut, offsets, swap_delta, scratch
        if positions is not None:
            positions, stride = np.ascontiguousarray(positions), positions.shape[1]
            flat.append((positions, "i8", (C, stride, Nt)))
            if not (lut.dtype.char in "bh" and lut.shape[1:] == (2,) and 1 <= paths <= stride):
                raise ValueError("build_plan: not the plan's layout")
            pair = np.empty((2, Nt, G, 1, 2, paths), lut.dtype)
            # The scratch: the LUT as packed quads, then plan.c's 64-path tile.
            by_path = [positions, lut, *pair, np.empty(len(lut) + 64 * Nt, np.uint64)]
        if not all(a.dtype == t and a.flags.c_contiguous and a.shape == n for a, t, n in flat):
            raise ValueError("build_plan: not the plan's layout")
        out = [np.empty((G, Nr, Nt), np.complex128), np.zeros((G, Nt), np.int64),
               np.empty((G, 1, Nt)), np.empty((G, Nt, 2, 2 * Nt)), np.empty((G, Nt))]  # fmt: skip
        item, rows = (lut.itemsize, len(lut)) if stride else (1, 1)
        dims = (ctypes.c_int64 * 8)(C, G, Nr, Nt, paths if stride else 0, stride, item, rows)
        pointers = [None if a is None else _address(a) for a in by_path]
        if plan(dims, *map(_address, (members, q, r, diag, permutation)), *pointers[:2],
                scale, scale**2, *map(_address, out), *pointers[2:]):  # fmt: skip
            raise ValueError("build_plan: a member not a row, or a permutation not the columns'")
        return (*out, pair)

    return types.SimpleNamespace(
        detect_group=detect_group, tree_search=tree_search, sorted_qr=sorted_qr,
        build_plan=build_plan,
    )  # fmt: skip


def _resolved() -> tuple:
    global _RESOLVED
    with _LOCK:
        if _RESOLVED is None:
            _RESOLVED = _resolve()
        return _RESOLVED


def kernel() -> "types.SimpleNamespace | None":
    """The native lane's ``detect_group``, ``tree_search``, ``sorted_qr``
    and ``build_plan``, or ``None``: this process's lane is portable."""
    return _resolved()[1]


def status() -> dict:
    """Lane (``"native"`` / ``"portable"``), compiler, flags, cache path,
    build seconds, failure reason, the entry points bound (all four
    or none), ``pes`` and ``run_flops`` of this process — JSON-friendly."""
    return dict(_resolved()[0])


def pes() -> int:
    """Processing elements a group's walk may fan out over: the CPUs this
    process may run on on the native lane, one on the portable lane."""
    return _resolved()[0]["pes"]


def pool() -> concurrent.futures.ThreadPoolExecutor:
    """This process's PE pool: ``pes() - 1`` threads (at least one),
    started as runs arrive."""
    global _POOL
    threads = max(pes() - 1, 1)
    with _LOCK:
        if _POOL is None:
            _POOL = concurrent.futures.ThreadPoolExecutor(threads, "flexcore-pe")
        return _POOL


def fan_out(run, runs: int) -> None:
    """``run(k)`` for each ``k < runs``: ``1 .. runs - 1`` on :func:`pool`,
    ``0`` on the calling thread, which returns once every run has, and
    raises if one did.  One run is a plain call."""
    futures = [pool().submit(run, k) for k in range(1, runs)]
    try:
        run(0)
    finally:
        for future in futures:
            future.result()


def _forget_pool() -> None:
    """A forked child inherits the pool's executor but none of its
    threads (and maybe a held lock): it starts its own."""
    global _POOL, _LOCK
    _POOL, _LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def clear(environ=os.environ) -> int:
    """Delete every object in the cache directory; returns how many."""
    directory = _cache_dir(environ)
    if directory is None:
        return 0
    stale = [name for name in os.listdir(directory) if name.endswith(".so")]
    for name in stale:
        os.unlink(os.path.join(directory, name))
    return len(stale)
