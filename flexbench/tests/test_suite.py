"""The suite's gates: repeatability, selectivity, fingerprint, recorder,
and the smoke lane end to end."""

import re
import subprocess
import sys
import time

from flexbench import fingerprint, suite
from flexbench.recorder import Recorder, self_times
from flexbench.spec import BENCHMARK, END_TO_END, PER_LAYER, ROOT, WORKLOADS


def record(metrics, table, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 1.0), "unit": table[name]["unit"]}
            for name in table
        },
        "extras": {},
    }


def one_set(untraced=None, traced=None, failed=0):
    return {
        workload: {
            "untraced": record(untraced or {}, END_TO_END, failed),
            "traced": record(traced or {}, PER_LAYER),
        }
        for workload in WORKLOADS
    }


def test_two_agreeing_sets_pass_and_a_drifted_one_fails(capsys):
    steady = [one_set({"vectors_per_s": 1000.0}), one_set({"vectors_per_s": 1040.0})]
    assert suite.spread_table(steady) == []
    bound = END_TO_END["vectors_per_s"]["bound"]
    drifted = [
        one_set({"vectors_per_s": 1000.0}),
        one_set({"vectors_per_s": 1000.0 * (1 + 3 * bound)}),
    ]
    problems = suite.spread_table(drifted)
    assert len(problems) == len(WORKLOADS)
    assert all("vectors_per_s" in problem for problem in problems)
    assert "EXCEEDS" in capsys.readouterr().out


def test_selectivity_fails_when_the_workloads_stop_separating_layers():
    good = {
        "share.tree_search": 45.0,
        "detector.prepare_share": 0.5,
        "bench.unattributed_share": 0.001,
    }
    records = one_set(traced=good)
    for workload in ("warm_walk", "soft_llr"):
        flat = dict(good, **{"share.tree_search": 0.0, "detector.prepare_share": 0.0})
        records[workload]["traced"] = record(flat, PER_LAYER)
    assert suite.check_limits(records, suite.SELECTIVITY) == []
    records["cold_mobility"]["traced"] = record(
        dict(good, **{"share.tree_search": 12.0}), PER_LAYER
    )
    records["warm_walk"]["traced"] = record(
        dict(good, **{"share.tree_search": 3.0, "detector.prepare_share": 0.2}),
        PER_LAYER,
    )
    problems = suite.check_limits(records, suite.SELECTIVITY)
    assert len(problems) == 3


def test_a_failed_operation_is_a_problem():
    assert suite.check_correct(one_set()) == []
    assert len(suite.check_correct(one_set(failed=1))) == len(WORKLOADS)


def test_a_different_machine_is_not_comparable():
    ours = fingerprint.collect(ROOT)
    assert fingerprint.differences(ours, dict(ours)) == []
    # The commit is a label, not identity: two commits on one box compare.
    assert fingerprint.differences(ours, dict(ours, git_sha="other")) == []
    theirs = dict(ours, nproc=64, blas="mkl 2024")
    assert fingerprint.differences(ours, theirs) == ["nproc", "blas"]
    for key in ("git_sha", "git_dirty", "cpu_model", "python", "numpy", "threads",
                "array_module", "loadavg_1m_start"):
        assert key in ours


def test_self_time_is_the_span_minus_its_children():
    recorder = Recorder("unit")
    outer = recorder.add("outer", 0.0, 10.0)
    inner = recorder.add("inner", 1.0, 7.0, parent=outer)
    recorder.add("leaf", 2.0, 4.0, parent=inner)
    assert self_times(recorder.spans) == [4.0, 4.0, 2.0]


def test_wrap_records_nested_calls_and_restores_the_original():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["inner"]
    recorder = Recorder("unit")
    recorder.wrap(Layer, "outer", "layer.outer")
    recorder.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer() == 2
    names = [(span["name"], span["parent"]) for span in recorder.spans]
    assert names == [("layer.outer", None), ("layer.inner", 0)]
    recorder.enabled = False
    assert Layer().outer() == 2 and len(recorder.spans) == 2
    recorder.unwrap_all()
    assert Layer.__dict__["inner"] is original


def test_smoke_lane_prints_every_frozen_name_with_its_unit():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "flexbench", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 40, f"smoke lane took {elapsed:.1f} s"
    for workload in WORKLOADS:
        assert f"== {workload} ==" in done.stdout
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        pattern = (
            rf"^\s+{re.escape(entry['name'])}\s+\S+ "
            rf"{re.escape(entry['unit'])}(?:\s|$)"
        )
        found = re.findall(pattern, done.stdout, flags=re.MULTILINE)
        assert len(found) >= len(WORKLOADS), entry["name"]
    assert "failed_ratio" in done.stdout and "claim: null" in done.stdout
