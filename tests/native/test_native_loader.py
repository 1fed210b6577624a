"""The native lane's loader: every failure is the portable lane.

``repro.native._resolve(environ)`` is the whole decision, and a function
of its environment: each case below hands it one (a private cache under
``tmp_path``, a ``CC``), then installs what it returned as the process's
lane and detects a block — which must come out right (against the frozen
complex loop of ``tests/reference``), with the documented lane in
``status()`` and at most one warning.  Nothing here may raise.
"""

import ctypes
import json
import multiprocessing
import os
import resource
import stat
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro import native
from repro.flexcore.detector import FlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from tests.conftest import make_block, make_stack
from tests.reference import flexcore_walk as reference

HAS_COMPILER = native._compiler({}) is not None
needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no cc / gcc / clang on PATH")

SYSTEM = MimoSystem(4, 4, QamConstellation(16))


def resolve(tmp_path, **environ):
    """``_resolve`` in a private environment; returns ``(resolved,
    warnings)``.  ``CC`` unset means the box's own compiler."""
    environ = {"PATH": os.environ["PATH"], "XDG_CACHE_HOME": str(tmp_path / "cache"), **environ}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resolved = native._resolve(environ)
    return resolved, [w for w in caught if "repro.native" in str(w.message)]


def detects_correctly(resolved) -> bool:
    """A block through the stacked kernel on ``resolved``'s lane."""
    detector = FlexCoreDetector(SYSTEM, 12)
    channels, received, noise_var = make_block(SYSTEM, 3, 4, 12.0, 5)
    contexts = detector.prepare_many(channels, noise_var)
    with mock.patch.object(native, "_RESOLVED", resolved):
        assert native.status()["lane"] == resolved[0]["lane"]
        indices, _ = detector.detect_block_prepared(contexts, received)
    return all(
        np.array_equal(indices[sc], reference.detect(detector, context, received[sc])[0])
        for sc, context in enumerate(contexts)
    )


def script(tmp_path, name, body) -> str:
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def assert_portable(resolved, caught, *reason):
    status, kernel = resolved
    assert kernel is None and status["lane"] == "portable" and status["entry_points"] == []
    assert status["pes"] == 1 and status["run_flops"] == native.RUN_FLOPS
    assert all(word in status["reason"] for word in reason), status["reason"]
    assert len(caught) == 1 and issubclass(caught[0].category, RuntimeWarning)
    assert json.loads(json.dumps(status)) == status
    assert detects_correctly(resolved)


class TestEveryFailureIsThePortableLane:
    def test_cc_false_is_how_an_operator_forces_it(self, tmp_path):
        resolved, caught = resolve(tmp_path, CC="false")
        assert_portable(resolved, caught, "false exited 1")
        assert resolved[0]["compiler"].endswith("false")

    def test_a_cc_that_does_not_exist_is_not_second_guessed(self, tmp_path):
        resolved, caught = resolve(tmp_path, CC="/nonexistent/cc")
        assert_portable(resolved, caught, "no C compiler", "/nonexistent/cc")
        assert resolved[0]["compiler"] is None and resolved[0]["cache"] is None

    def test_no_compiler_anywhere(self, tmp_path):
        resolved, caught = resolve(tmp_path, PATH=str(tmp_path))
        assert_portable(resolved, caught, "no C compiler")

    def test_a_compiler_that_fails_says_why(self, tmp_path):
        cc = script(tmp_path, "cc1", "echo 'walk.c: unsupported' >&2\nexit 1\n")
        resolved, caught = resolve(tmp_path, CC=cc)
        assert_portable(resolved, caught, "cc1 exited 1", "walk.c: unsupported")
        assert list((tmp_path / "cache" / "repro-flexcore").iterdir()) == []

    def test_a_compiler_that_writes_garbage(self, tmp_path):
        body = 'while [ "$1" != "-o" ]; do shift; done\necho garbage > "$2"\n'
        resolved, caught = resolve(tmp_path, CC=script(tmp_path, "cc2", body))
        assert_portable(resolved, caught, "OSError")
        # ... and the next process, finding that object cached, ends the same.
        assert_portable(*resolve(tmp_path, CC=script(tmp_path, "cc2", body)), "OSError")

    def test_nowhere_to_write(self, tmp_path):
        with mock.patch.object(native, "_cache_dir", return_value=None), mock.patch.object(
            tempfile, "mkdtemp", side_effect=PermissionError("read-only")
        ):
            resolved, caught = resolve(tmp_path)
        assert_portable(resolved, caught, *(["read-only"] if HAS_COMPILER else []))


@needs_compiler
class TestTheCache:
    def test_cold_then_warm(self, tmp_path):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        (cold, _), caught = resolve(tmp_path)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert cold["lane"] == "native" and not caught
        # The compiler's CPU seconds, not wall clock: a loaded box
        # stretches the wall time of a compile, not its work.
        compile_cpu_s = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        assert 0.0 < cold["build_s"] and compile_cpu_s <= 1.5
        cache = tmp_path / "cache" / "repro-flexcore"
        assert Path(cold["cache"]).parent == cache
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        with mock.patch.object(subprocess, "run") as run:
            warm, caught = resolve(tmp_path)
        assert not run.called and not caught
        assert warm[0] == {**cold, "build_s": 0.0}
        assert detects_correctly(warm)
        assert [path.name for path in cache.iterdir()] == [Path(cold["cache"]).name]

    def test_the_key_covers_the_compiler_and_the_source(self, tmp_path):
        (first, _), _ = resolve(tmp_path)
        wrapped = script(tmp_path, "wrapped-cc", 'exec cc "$@"\n')
        (second, _), _ = resolve(tmp_path, CC=wrapped)
        assert second["lane"] == "native" and second["cache"] != first["cache"]
        assert native._key(b"a", [wrapped]) != native._key(b"b", [wrapped])

    @pytest.mark.parametrize("edited", native.SOURCES)
    def test_a_byte_changed_in_any_one_source_changes_the_key(self, tmp_path, edited):
        compiler = native._compiler({"PATH": os.environ["PATH"]})
        shipped = resources.files("repro.native")
        for name in native.SOURCES:
            text = shipped.joinpath(name).read_bytes()
            (tmp_path / name).write_bytes(text + b" " if name == edited else text)
        with mock.patch.object(native, "resources", SimpleNamespace(files=lambda _: tmp_path)):
            changed = native._source()
        assert changed != native._source()
        assert native._key(changed, compiler) != native._key(native._source(), compiler)

    def test_a_truncated_object_is_rebuilt_once(self, tmp_path):
        # Built by another process: truncating an object this process has
        # mapped would fault it, which is why builds go through os.replace.
        environ = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                   "XDG_CACHE_HOME": str(tmp_path / "cache")}  # fmt: skip
        environ.pop("CC", None)
        done = subprocess.run(
            [sys.executable, "-m", "repro.native"],
            check=True, env=environ, timeout=120, capture_output=True, text=True,
        )  # fmt: skip
        first = json.loads(done.stdout)
        assert first["lane"] == "native"
        Path(first["cache"]).write_bytes(Path(first["cache"]).read_bytes()[:100])
        resolved, caught = resolve(tmp_path)
        assert not caught and resolved[0]["lane"] == "native"
        assert resolved[0]["cache"] == first["cache"] and resolved[0]["build_s"] > 0.0
        assert detects_correctly(resolved)

    def test_all_four_entry_points_are_bound_from_the_one_object(self, tmp_path):
        (status, kernel), caught = resolve(tmp_path)
        assert not caught and status["entry_points"] == list(native.ENTRY_POINTS)
        assert status["entry_points"] == [
            "flexcore_detect_group", "flexcore_tree_search", "flexcore_sorted_qr",
            "flexcore_build_plan",
        ]  # fmt: skip
        assert callable(kernel.detect_group) and callable(kernel.tree_search)
        assert callable(kernel.sorted_qr) and callable(kernel.build_plan)
        assert status["pes"] == len(os.sched_getaffinity(0)) and status["run_flops"] == native.RUN_FLOPS
        assert os.listdir(tmp_path / "cache" / "repro-flexcore") == [Path(status["cache"]).name]

    @pytest.mark.parametrize(
        "symbol, exported",
        [(name, True) for name in native.ENTRY_POINTS]
        + [("flexcore_walk_tile", False), ("walk_frame", False), ("mul", False)],
    )
    def test_the_object_exports_the_entry_points_and_nothing_else(
        self, tmp_path, symbol, exported
    ):
        """The shared object's dynamic symbols are its four entry points:
        the tile walk is gone, and the frame walk the fused call shares
        stays internal to ``walk.c``, as the heap's ``mul`` stays internal
        to ``search.c``."""
        (status, _), caught = resolve(tmp_path)
        assert not caught and status["lane"] == "native"
        assert hasattr(ctypes.CDLL(status["cache"]), symbol) is exported

    @pytest.mark.parametrize(
        "present",
        [tuple(name for name in native.ENTRY_POINTS if name != lacking)
         for lacking in native.ENTRY_POINTS],
        ids=[f"lacking-{name}" for name in native.ENTRY_POINTS],
    )  # fmt: skip
    def test_an_object_lacking_an_entry_point_is_rebuilt_once(self, tmp_path, present):
        """A kernel that loads but lacks the fused walk, the tree search,
        the QR or the plan builder must not leave the process on the portable lane for any: it
        is unmapped and rebuilt where it lies, as a truncated one is."""
        (first, _), _ = resolve(tmp_path)
        stale = tmp_path / "stale.so"
        subprocess.run(
            [*native._compiler({"PATH": os.environ["PATH"]}), "-shared", "-fPIC", "-x", "c", "-", "-o", str(stale)],
            input="".join(f"void {name}(void) {{}}\n" for name in present).encode(),
            check=True, timeout=60,
        )  # fmt: skip
        # A fresh process maps the stale object first (this one has the good
        # one mapped under that path already, and would be handed it again).
        os.replace(stale, first["cache"])
        code = (
            "import json, subprocess\n"
            "from repro import native\n"
            "status = native.status()\n"
            "assert native.kernel().detect_group is not None\n"
            "assert native.kernel().tree_search is not None\n"
            "assert native.kernel().sorted_qr is not None\n"
            "assert native.kernel().build_plan is not None\n"
            "subprocess.run = None\n"
            "native._RESOLVED = None\n"
            "print(json.dumps([status, native.status()]))\n"
        )
        environ = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                   "XDG_CACHE_HOME": str(tmp_path / "cache")}  # fmt: skip
        environ.pop("CC", None)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            check=True, env=environ, timeout=120, capture_output=True, text=True,
        )  # fmt: skip
        rebuilt, again = json.loads(done.stdout)
        assert rebuilt["lane"] == again["lane"] == "native"
        assert rebuilt["cache"] == again["cache"] == first["cache"]
        assert rebuilt["build_s"] > 0.0 and again["build_s"] == 0.0
        assert rebuilt["entry_points"] == list(native.ENTRY_POINTS)

    @pytest.mark.parametrize("flaw", ["world-writable", "someone-else's"])
    def test_an_untrusted_directory_is_refused_for_the_next(self, tmp_path, flaw):
        first = tmp_path / "cache" / "repro-flexcore"
        first.mkdir(parents=True)
        real_uid = os.getuid()
        with mock.patch.object(tempfile, "tempdir", str(tmp_path)):
            if flaw == "world-writable":
                first.chmod(0o777)
                resolved, caught = resolve(tmp_path)
                assert Path(resolved[0]["cache"]).parent == tmp_path / f"repro-flexcore-{real_uid}"
            else:
                # Nothing on disk is this caller's: a per-process directory.
                with mock.patch.object(os, "getuid", return_value=real_uid + 1):
                    resolved, caught = resolve(tmp_path)
                assert Path(resolved[0]["cache"]).parent.parent == tmp_path
                assert not Path(resolved[0]["cache"]).parent.exists()
        assert not caught and resolved[0]["lane"] == "native"
        assert list(first.iterdir()) == []
        assert detects_correctly(resolved)

    def test_two_processes_racing_a_cold_cache(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        barrier, queue = context.Barrier(2), context.Queue()
        racers = [
            context.Process(target=_race, args=(str(tmp_path / "cache"), barrier, queue))
            for _ in range(2)
        ]
        for racer in racers:
            racer.start()
        statuses = [queue.get(timeout=60) for _ in racers]
        for racer in racers:
            racer.join(timeout=30)
            assert racer.exitcode == 0
        assert [status["lane"] for status in statuses] == ["native", "native"]
        assert statuses[0]["cache"] == statuses[1]["cache"]
        assert any(status["build_s"] > 0.0 for status in statuses)
        assert os.listdir(tmp_path / "cache" / "repro-flexcore") == [
            Path(statuses[0]["cache"]).name
        ]

    def test_clear_empties_it(self, tmp_path):
        environ = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
        (status, _), _ = resolve(tmp_path)
        with mock.patch.object(tempfile, "tempdir", str(tmp_path)):
            assert native.clear(environ) == 1
            assert not Path(status["cache"]).exists()
            assert native.clear(environ) == 0


def _race(cache, barrier, queue):
    os.environ["XDG_CACHE_HOME"] = cache
    os.environ.pop("CC", None)
    barrier.wait(timeout=30)
    queue.put(native.status())


class TestResolvedOncePerProcessAndNeverInAFlush:
    def test_a_second_call_touches_nothing(self):
        first = native.status()
        with mock.patch.object(subprocess, "run") as run, mock.patch(
            "builtins.open"
        ) as opened, mock.patch.object(os, "stat") as stats:
            assert native.status() == first
            assert native.kernel() is native.kernel()
        assert not run.called and not opened.called and not stats.called

    def test_not_at_import(self):
        code = (
            "import subprocess, sys\n"
            "subprocess.run = None\n"
            "import repro.api, repro.farm\n"
            "from repro import native\n"
            "assert native._RESOLVED is None\n"
        )
        environ = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=environ, timeout=60)

    @needs_compiler
    def test_build_stack_compiles_and_a_paced_run_does_not(self, tmp_path, monkeypatch):
        from repro.channel.fading import rayleigh_channels
        from repro.control.workload import WorkloadScenario

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setattr(native, "_RESOLVED", None)
        real, compiles = subprocess.run, []

        def spy(*args, **kwargs):
            compiles.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", spy)
        detector = FlexCoreDetector(SYSTEM, 12)
        with make_stack(detector, "array", cells=2) as stack:
            assert len(compiles) == 1, "the backend's construction resolves the lane"
            scenario = WorkloadScenario("steady", stack.cell_ids, slots=6, subcarriers=4)
            rng = np.random.default_rng(3)
            channels = {cell: rayleigh_channels(4, 4, 4, rng) for cell in stack.cell_ids}
            outcome, _ = stack.run_streaming(scenario, channels, 0.05, slot_interval_s=0.002)
            assert outcome.frames_detected > 0
            lane = stack.stats()["native"]
        assert len(compiles) == 1, "no compile inside a flush"
        assert lane["lane"] == "native" and lane["build_s"] > 0.0
        assert Path(lane["cache"]).parent == tmp_path / "repro-flexcore"


class TestPackaging:
    def test_the_sources_ship_with_the_package(self):
        shipped = resources.files("repro.native")
        assert all(shipped.joinpath(name).is_file() for name in native.SOURCES)
        assert all(name.encode() in native._source() for name in native.ENTRY_POINTS)
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        assert '"repro.native" = ["*.c"]' in pyproject.read_text()

    def test_never_fast_math(self):
        assert not any("fast-math" in flag or "finite-math" in flag for flag in native.FLAGS)
        assert "-ffp-contract=off" in native.FLAGS

    def test_the_module_prints_its_status(self, tmp_path):
        environ = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "CC": "false",
                   "XDG_CACHE_HOME": str(tmp_path)}  # fmt: skip
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "repro.native", "--clear"],
            check=True, env=environ, timeout=60, capture_output=True, text=True,
        )  # fmt: skip
        status = json.loads(done.stdout)
        assert status["lane"] == "portable" and "false exited 1" in status["reason"]
        assert "removed 0" in done.stderr
