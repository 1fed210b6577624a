"""Shared fixtures for the test suite, and the blocking-call tripwire."""

from __future__ import annotations

import asyncio
import builtins
import concurrent.futures
import functools
import multiprocessing.connection
import os
import subprocess
import threading
import time
import traceback
import weakref

import numpy as np
import pytest

from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation

# ----------------------------------------------------------------------
# Blocking-call tripwire.  The streaming scheduler runs every flush on
# the asyncio event loop, so one synchronous wait anywhere below it —
# in any module — stalls every cell's slot deadline at once.  For the
# whole session these primitives are wrapped; a call made on a thread
# whose event loop is running is recorded with its stack, and the
# autouse ``blocking_calls`` fixture fails the test that made it.  A
# call that returns at once (a done future, a finished thread, a
# ``WNOHANG`` wait) is not a blocking call.
#
# A fused walk that fans out over the PE pool (``repro.native.fan_out``)
# is still the detect call: the join on the pool's futures is its
# compute, not a wait, and is not recorded — but whatever a PE thread
# runs for a join made on the loop counts as on the loop.


def _always(*args, **kwargs):
    return True


_PRIMITIVES = (
    (time, "sleep", _always),
    (subprocess.Popen, "__init__", _always),
    (os, "system", _always),
    (os, "waitpid", lambda pid, options: not options & os.WNOHANG),
    (builtins, "open", _always),
    (multiprocessing.connection.Connection, "recv", _always),
    (multiprocessing.connection.Connection, "recv_bytes", _always),
    (
        concurrent.futures.Future,
        "result",
        lambda future, timeout=None: not future.done() and future not in _PE_JOINS,
    ),
    (threading.Thread, "join", lambda thread, timeout=None: thread.is_alive()),
)

_BLOCKING_CALLS: list = []
_TRIPWIRE = pytest.MonkeyPatch()
#: Futures of the PE pool: joining one is part of the detect call.
_PE_JOINS: "weakref.WeakSet" = weakref.WeakSet()
#: ``loop_side`` is set on a PE thread while it runs for a loop-side join.
_PE_THREAD = threading.local()


def _on_running_loop() -> bool:
    if getattr(_PE_THREAD, "loop_side", False):
        return True
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _tripwire(owner, name, blocks):
    original = getattr(owner, name)
    label = f"{getattr(owner, '__qualname__', owner.__name__)}.{name}"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if _on_running_loop() and blocks(*args, **kwargs):
            stack = "".join(traceback.format_stack(limit=16)[:-1])
            _BLOCKING_CALLS.append((label, stack))
        return original(*args, **kwargs)

    return wrapper


class _LoopSidePool:
    """``repro.native.pool()`` as the tripwire sees it: each run carries
    whether it was submitted from a running loop onto its PE thread, and
    its future is a PE join."""

    def __init__(self, pool):
        self._pool = pool

    def submit(self, run, *args):
        loop_side = _on_running_loop()

        def pe_run(*args):
            _PE_THREAD.loop_side = loop_side
            try:
                return run(*args)
            finally:
                _PE_THREAD.loop_side = False

        future = self._pool.submit(pe_run, *args)
        _PE_JOINS.add(future)
        return future


def pytest_sessionstart(session):
    from repro import native

    # A cold cache compiles walk.c here (``subprocess.run``), once,
    # instead of inside whichever test first builds a stack on a loop.
    native.status()
    for owner, name, blocks in _PRIMITIVES:
        _TRIPWIRE.setattr(owner, name, _tripwire(owner, name, blocks))
    pool = native.pool
    _TRIPWIRE.setattr(native, "pool", lambda: _LoopSidePool(pool()))


def pytest_sessionfinish(session, exitstatus):
    _TRIPWIRE.undo()


@pytest.fixture(autouse=True)
def blocking_calls():
    """``(primitive, stack)`` for each blocking call this test made on a
    running event loop; any left at teardown fail the test.  A test that
    provokes one on purpose empties the list itself."""
    _BLOCKING_CALLS.clear()
    yield _BLOCKING_CALLS
    if _BLOCKING_CALLS:
        pytest.fail(
            "\n".join(
                f"{label}() blocked a running event loop:\n{stack}"
                for label, stack in _BLOCKING_CALLS
            ),
            pytrace=False,
        )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=[4, 16, 64], ids=["qpsk", "16qam", "64qam"])
def constellation(request):
    return QamConstellation(request.param)


@pytest.fixture
def qam16():
    return QamConstellation(16)


@pytest.fixture
def small_system(qam16):
    """A 3x3 16-QAM system small enough for exhaustive ML."""
    return MimoSystem(3, 3, qam16)


@pytest.fixture
def mid_system(qam16):
    return MimoSystem(8, 8, qam16)


def random_link(system, snr_db, num_vectors, rng):
    """Helper: (channel, tx indices, received) triple for detector tests."""
    from repro.channel.fading import rayleigh_channel
    from repro.mimo.model import apply_channel, noise_variance_for_snr_db
    from repro.modulation.mapper import random_symbol_indices

    channel = rayleigh_channel(
        system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    indices = random_symbol_indices(
        num_vectors, system.num_streams, system.constellation, rng
    )
    received = apply_channel(
        channel, system.constellation.points[indices], noise_var, rng
    )
    return channel, indices, received, noise_var


def make_block(system, subcarriers, frames, snr_db, seed):
    """``(S, Nr, Nt)`` Rayleigh channels and ``(S, F, Nr)`` noisy
    received symbols."""
    from repro.channel.fading import rayleigh_channels
    from repro.mimo.model import noise_variance_for_snr_db

    rng = np.random.default_rng(seed)
    channels = rayleigh_channels(
        subcarriers, system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    sent = system.constellation.points[
        rng.integers(
            0, system.constellation.order, (subcarriers, frames, system.num_streams)
        )
    ]
    shape = (subcarriers, frames, system.num_rx_antennas)
    noise = np.sqrt(noise_var / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    return channels, np.einsum("srt,sft->sfr", channels, sent) + noise, noise_var


def make_stack(
    detector, backend="serial", cells=None, cache=True, governor=None, **scheduler
):
    """``build_stack(StackConfig(...), detector=detector)`` from
    test-sized arguments.

    ``backend`` is a registry name or a ``BackendSpec``; ``cells=None``
    is a batch stack, an integer a streaming farm of that many cells;
    ``governor`` is a ``GovernorSpec``; remaining keywords are
    ``SchedulerSpec`` fields.
    """
    from repro.api import (
        BackendSpec,
        CacheSpec,
        FarmSpec,
        SchedulerSpec,
        StackConfig,
        build_stack,
    )

    if not isinstance(backend, BackendSpec):
        backend = BackendSpec(backend)
    config = StackConfig(
        backend=backend,
        cache=CacheSpec(enabled=cache),
        farm=FarmSpec(
            streaming=cells is not None, cells=1 if cells is None else cells
        ),
        scheduler=SchedulerSpec(**scheduler),
        governor=governor,
    )
    return build_stack(config, detector=detector)


def portable_lane():
    """A context in which ``repro.native.kernel()`` is ``None``: the
    numpy level loop, slab search and QR recursion, as ``CC=false`` makes
    them for a whole process."""
    from unittest import mock

    from repro import native

    forced = ({**native.status(), "lane": "portable", "reason": "forced by a test"}, None)
    return mock.patch.object(native, "_RESOLVED", forced)


@pytest.fixture(params=["portable", "native"])
def lane(request):
    """Run a test on each lane of the walk: ``portable`` forces the
    numpy level loop and slab search (:func:`portable_lane`), ``native``
    is the compiled object — the fused group walk and the tree search —
    and skips only where ``repro.native.status()`` reports no compiler."""
    from repro import native

    status = native.status()
    if request.param == "native":
        if status["lane"] != "native":
            pytest.skip(f"no native lane here: {status['reason']}")
        yield "native"
        return
    with portable_lane():
        yield "portable"


def distance_bound(expected, weights, ulps=64):
    """How far another lane's PEDs may lie from ``expected`` ``(G, F,
    P)``, per element: ``ulps`` units in the last place of the distance,
    or of one half-grid step at every level (``weights`` is the plan's
    ``(G, Nt)``) where the distance is smaller than that.  The lanes
    differ by the summation order of the interference product."""
    floor = np.broadcast_to(weights.sum(axis=1)[:, None, None], expected.shape)
    return ulps * np.spacing(np.maximum(np.abs(expected), floor))