"""The blocking-call tripwire of ``tests/conftest.py``, primitive by
primitive: each wrapped call made on a running event loop is recorded,
and the forms that return at once — or run off the loop — are not.
The live-code case (a sleep reached from a streaming flush) is in
``tests/runtime/test_scheduler.py``."""

import asyncio
import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest


def recorded_on_loop(call, blocking_calls):
    """Labels the tripwire recorded while ``call()`` ran on a loop."""

    async def main():
        call()

    asyncio.run(main())
    labels = {label for label, _ in blocking_calls}
    blocking_calls.clear()  # provoked on purpose; the fixture would fail it
    return labels


def sleep():
    time.sleep(0)


def popen():
    subprocess.Popen([sys.executable, "-c", ""]).wait()


def system():
    os.system("true")


def waitpid():
    child = subprocess.Popen([sys.executable, "-c", ""])
    os.waitpid(child.pid, 0)
    child.returncode = 0


def open_file():
    open(os.devnull).close()


def recv():
    sender, receiver = multiprocessing.Pipe()
    with sender, receiver:
        sender.send(1)
        receiver.recv()


def recv_bytes():
    sender, receiver = multiprocessing.Pipe()
    with sender, receiver:
        sender.send_bytes(b"x")
        receiver.recv_bytes()


def pending_result():
    with pytest.raises(concurrent.futures.TimeoutError):
        concurrent.futures.Future().result(timeout=0)


def live_join():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    threading.Timer(0.01, release.set).start()
    thread.join()


@pytest.mark.parametrize(
    "call, label",
    [
        (sleep, "time.sleep"),
        (popen, "Popen.__init__"),
        (system, "os.system"),
        (waitpid, "os.waitpid"),
        (open_file, "builtins.open"),
        (recv, "Connection.recv"),
        (recv_bytes, "Connection.recv_bytes"),
        (pending_result, "Future.result"),
        (live_join, "Thread.join"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_a_blocking_primitive_on_a_loop_is_recorded(call, label, blocking_calls):
    assert label in recorded_on_loop(call, blocking_calls)


def done_result():
    future = concurrent.futures.Future()
    future.set_result(1)
    assert future.result() == 1


def finished_join():
    thread = threading.Thread(target=int)
    thread.start()
    while thread.is_alive():
        pass
    thread.join()


def nohang_waitpid():
    child = subprocess.Popen([sys.executable, "-c", ""])
    while os.waitpid(child.pid, os.WNOHANG) == (0, 0):
        pass
    child.returncode = 0


@pytest.mark.parametrize(
    "call, label",
    [
        (done_result, "Future.result"),
        (finished_join, "Thread.join"),
        (nohang_waitpid, "os.waitpid"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_a_call_that_returns_at_once_is_not_recorded(call, label, blocking_calls):
    assert label not in recorded_on_loop(call, blocking_calls)


def test_a_blocking_call_off_the_loop_is_not_recorded(blocking_calls):
    time.sleep(0)
    assert blocking_calls == []
