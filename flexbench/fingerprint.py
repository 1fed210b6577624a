"""The machine and build a record was taken on.

Two records are comparable only when their fingerprints agree on
everything about the *machine* that moves a timing: CPU, core count,
interpreter, numpy + BLAS build, thread pins and array module.  The
commit and the load averages ride along as labels — comparing two
commits on one machine is what the fingerprint is for.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

#: Keys that must match for two records to be compared.
IDENTITY = (
    "cpu_model",
    "nproc",
    "affinity",
    "python",
    "numpy",
    "blas",
    "threads",
    "array_module",
)


def _git(root: Path, *args: str) -> "str | None":
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy

    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{build.get('name')} {build.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def collect(root: Path) -> dict:
    import numpy

    from repro.utils.xp import default_array_module

    status = _git(root, "status", "--porcelain")
    return {
        # A checkout without git (the benchmark driver's) has no commit.
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "array_module": default_array_module().name,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def differences(ours: dict, theirs: dict) -> "list[str]":
    """Identity keys on which two fingerprints disagree."""
    return [key for key in IDENTITY if ours.get(key) != theirs.get(key)]
