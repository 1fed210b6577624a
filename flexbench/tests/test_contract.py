"""BENCHMARK.json against the benchmark contract, and the result line."""

import json
import re

from flexbench.__main__ import result_line
from flexbench.spec import BENCHMARK, END_TO_END, PER_LAYER, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_exact_keys():
    assert set(BENCHMARK) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["flexbench"]
    assert BENCHMARK["command"] == ["python3", "-m", "flexbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_and_metrics_are_well_formed():
    assert WORKLOADS == (
        "warm_walk",
        "cold_mobility",
        "soft_llr",
        "paced_farm",
        "fleet_2w",
    )
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [entry["name"] for entry in BENCHMARK["workloads"]]
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    assert len(names) == len(set(names))
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128


def test_setup_has_the_largest_bound():
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in END_TO_END.values())


def test_the_issue_named_metrics_are_all_frozen():
    for name in ("vectors_per_s", "latency_best_ms", "setup_s", "peak_rss_mb"):
        assert name in END_TO_END
    # Report-only: exactly zero today, exact per seed with an absolute
    # bound, or (p50, p90) at the mercy of the neighbours on a shared box
    # — the contract's relative bound on a steady, never-zero median
    # cannot carry them.
    for name in ("latency_p50_ms", "latency_p90_ms", "ver", "llr_ber", "failed_ratio"):
        assert name in PER_LAYER


def test_result_line_has_exactly_the_contract_keys():
    outcome = {
        "attempted": 10,
        "failed": 0,
        "metrics": {name: 1.5 for name in END_TO_END},
    }
    record = json.loads(result_line(outcome, trace=False))
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert set(record["metrics"]) == set(END_TO_END)
    for name, metric in record["metrics"].items():
        assert metric == {"value": 1.5, "unit": END_TO_END[name]["unit"]}
    traced = dict(outcome, metrics={name: 0 for name in PER_LAYER}, failed=3)
    record = json.loads(result_line(traced, trace=True))
    assert record["correct"] is False and record["failed"] == 3
    assert set(record["metrics"]) == set(PER_LAYER)
