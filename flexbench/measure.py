"""Small measuring helpers shared by every workload."""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


def median(values) -> float:
    return float(statistics.median(values))


def latencies(durations) -> dict:
    """Best, median and p90 of a sample of latencies, in milliseconds.

    On a shared machine a neighbour can slow a whole run by a third but
    never speeds one up, so the fastest sample is the one that repeats
    from run to run: ``latency_best_ms`` is the bounded metric, the
    median and p90 say what the run was like and carry no bound.
    """
    return {
        "latency_best_ms": min(durations) * 1e3,
        "latency_p50_ms": median(durations) * 1e3,
        "latency_p90_ms": percentile(durations, 90) * 1e3,
    }


def rates(durations, work) -> dict:
    """Vectors per second of a loop whose call ``i`` took ``durations[i]``
    and got ``work[i]`` vectors done: the fastest call's rate (bounded,
    for the reason :func:`latencies` gives) and total over total."""
    return {
        "vectors_per_s": max(w / d for w, d in zip(work, durations)),
        "vectors_per_s.sustained": sum(work) / sum(durations),
    }


def median_us(call, budget_s: float = 0.25, min_reps: int = 5) -> float:
    """Median wall time of ``call()`` in microseconds.

    Repeats until ``budget_s`` is spent (and at least ``min_reps``
    times), after one untimed warm-up call.
    """
    call()
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


#: What a caller of the stack imports; timed in-process by
#: ``flexbench.__main__`` and again, in fresh interpreters, by
#: :func:`import_seconds`.
IMPORTS = "import numpy, repro.api, repro.farm"


def import_seconds(src, repeats: int) -> "list[float]":
    """Time ``IMPORTS`` in ``repeats`` fresh interpreters (a process can
    only import once, and one sample of a disk-bound second is noise)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        f"t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(done.stdout))
    return samples


def set_up_repeatedly(set_up, repeats: int):
    """Run ``set_up()`` ``repeats`` times, closing all but the last.

    ``set_up`` returns ``(resource, seconds, ...)``; the last call's
    whole result is returned with the median of the ``seconds``.
    """
    result, samples = None, []
    for _ in range(repeats):
        if result is not None:
            result[0].close()
        result = set_up()
        samples.append(result[1])
    return result, median(samples)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus reaped children), in MB."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0
