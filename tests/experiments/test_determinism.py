"""Determinism as a property of the running code.

The quick rows of every fast experiment must be byte-identical across
two fresh processes that differ in ``PYTHONHASHSEED`` and in the legacy
global ``np.random`` seed — the two kinds of hidden process state that
break the bit-identity pins: set iteration order feeding arithmetic,
and global-RNG draws beside the seeded ``default_rng`` idiom.  Either
hazard, patched into a live kernel, splits the two processes' digests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Every experiment whose quick run takes under 3 s (fig9 and fig12
#: take about 12 and 13 s and are left out; fig10 takes about 2 s).
FAST_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig11",
    "fig13",
    "fig14",
    "ablations",
    "soft_gain",
    "fig10",
)

#: ``(PYTHONHASHSEED, legacy np.random seed)`` of each of the two processes.
PROCESSES = ((0, 1), (7, 2))

#: The child's program, after any injected patch: seed the legacy global
#: RNG, run the named experiments' quick profile, print one SHA-256 of
#: each experiment's rows.
CHILD = """
import hashlib, json, sys
import numpy as np
from repro.experiments.runner import EXPERIMENTS
np.random.seed(int(sys.argv[1]))
print(json.dumps({
    name: hashlib.sha256(repr(EXPERIMENTS[name]("quick").rows).encode()).hexdigest()
    for name in sys.argv[2:]
}))
"""

#: A global-RNG term in the per-level error-probability kernel.  Each
#: hazard scales ``Pe`` down, so it stays a probability the tree search
#: accepts.
GLOBAL_RNG = """
import numpy as np
from repro.flexcore import probability
pe = probability.pe_corrected
probability.pe_corrected = lambda *args, **kwargs: pe(*args, **kwargs) * (
    1.0 - 0.1 * np.random.random()
)
"""

#: The same kernel scaled by where a string lands in a set's iteration.
SET_ORDER = """
from repro.flexcore import probability
pe = probability.pe_corrected
probability.pe_corrected = lambda *args, **kwargs: pe(*args, **kwargs) * (
    1.0 - 0.1 * list({"qr", "tree_search", "detect", "flush"}).index("qr")
)
"""


def digests(experiments, inject=""):
    """Each process's ``{experiment: digest}``, both run concurrently."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", inject + CHILD, str(legacy_seed), *experiments],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(hash_seed)},
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed, legacy_seed in PROCESSES
    ]
    outputs = [child.communicate(timeout=300)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    return [json.loads(output.splitlines()[-1]) for output in outputs]


@pytest.fixture(scope="module")
def clean_digests():
    """Both processes' digests of every fast experiment, computed once."""
    return digests(FAST_EXPERIMENTS)


@pytest.mark.parametrize("experiment", FAST_EXPERIMENTS)
def test_fast_experiment_is_identical_across_processes(experiment, clean_digests):
    first, second = clean_digests
    assert list(first) == list(FAST_EXPERIMENTS)
    assert first[experiment] == second[experiment]


@pytest.mark.parametrize("inject", [GLOBAL_RNG, SET_ORDER], ids=["global_rng", "set_order"])
def test_an_injected_hazard_splits_the_digests(inject):
    first, second = digests(["table2"], inject)
    assert first["table2"] != second["table2"]
