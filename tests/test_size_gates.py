"""The ROADMAP size gates, pinned as line ceilings.

Each gate is one file, a glob or a ``+``-joined sum of files under
``src/repro``, counted the way ``wc -l`` counts lines.  A change that
grows a gated file past its ceiling fails here: raising a number is a
deliberate edit, and CHANGES.md says why.  (One more gate,
``StackConfig``'s leaf fields, is pinned by
``tests/api/test_specs.py::TestSettableSurface``.)
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

GATES = {
    "**/*.py": 15841,
    "experiments/**/*.py": 2585,
    "link/simulation.py": 282,
    "utils/xp.py": 210,
    "flexcore/detector.py + flexcore/soft.py": 1158,
    "runtime/residency.py": 109,
    "runtime/cache.py": 306,
    "native/__init__.py": 366,
    "native/walk.c": 192,
    "native/search.c": 140,
    "native/qr.c": 70,
    "detectors/fcsd.py + detectors/sic.py": 100,
    "runtime/scheduler.py": 602,
    "control/governor.py": 437,
    "control/policy.py": 377,
    "flexcore/preprocessing.py": 460,
    "api/specs.py": 522,
    "farm/coordinator.py": 623,
    "farm/**/*.py": 972,
}


def gate_lines(gate: str) -> int:
    paths = [path for part in gate.split(" + ") for path in sorted(SRC.glob(part))]
    assert paths, f"gate {gate!r} matches no file"
    return sum(path.read_bytes().count(b"\n") for path in paths)


@pytest.mark.parametrize("gate, ceiling", GATES.items(), ids=list(GATES))
def test_gated_source_within_its_ceiling(gate, ceiling):
    lines = gate_lines(gate)
    assert lines <= ceiling, f"{gate}: {lines} lines > {ceiling}; raise the gate and say why"
