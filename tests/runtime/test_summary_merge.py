"""Properties of the accounting fold: `MetricsRegistry.merge_dict` +
the `scheduler_summary` / `cell_summaries` views.

The fold is the fleet's telemetry backbone: every scheduler run folds
into its farm's ledger, every chunk reply into the coordinator's, and
all of them must land on the same numbers regardless of grouping — i.e.
the fold is associative and order-invariant.  It must also keep failure
visible: an empty (dead-lane) ledger reads ``deadline_hit_rate == 1.0``
on its own, so the view carries ``summaries_merged`` (how many scheduler
runs went in) and ``frames_missing`` (submitted but neither detected
nor shed).  Only ledgers are ever merged; summaries are rendered last.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    FlushLedger,
    MetricsRegistry,
    cell_summaries,
    scheduler_summary,
)
from repro.runtime import CacheStats, TransferStats
from repro.runtime.scheduler import FlushRecord

counts = st.integers(min_value=0, max_value=10_000)
latencies = st.floats(
    min_value=1e-6, max_value=5.0, allow_nan=False, allow_infinity=False
)

#: One flush: (cell, reason, frames, late share, groups, latency).
flushes = st.tuples(
    st.sampled_from(["cell0", "cell1", "cell2"]),
    st.sampled_from(["target", "deadline", "drain"]),
    st.integers(min_value=1, max_value=500),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=16),
    latencies,
)


def leaf_payload(flush_list, shed=0, vanished=0, deadline_s=0.01):
    """One scheduler run's ledger, written through the real writer."""
    ledger = FlushLedger()
    ledger.run_started()
    for index, (cell, reason, frames, late_share, groups, latency) in enumerate(
        flush_list
    ):
        ledger.submitted(cell, frames)
        record = FlushRecord(
            cell=cell,
            reason=reason,
            subcarriers=groups,
            frames=frames,
            first_arrival_s=float(index),
            flushed_s=float(index),
            completed_s=index + latency,
            deadline_s=index + deadline_s,
        )
        ledger.account(
            record,
            groups,
            int(late_share * frames),
            CacheStats(hits=groups, misses=1, entries=index),
            TransferStats(uploads=1, upload_bytes=64),
        )
    if shed:
        ledger.submitted("cell0", shed)
        ledger.shed("cell0", shed)
    if vanished:
        ledger.submitted("cell0", vanished)
    return ledger.metrics.to_dict()


leaves = st.builds(
    leaf_payload,
    st.lists(flushes, max_size=8),
    shed=counts,
    vanished=counts,
)


def fold(*payloads) -> MetricsRegistry:
    merged = MetricsRegistry()
    for payload in payloads:
        merged.merge_dict(payload)
    return merged


def assert_equal(left, right, path="") -> None:
    if isinstance(left, dict):
        assert left.keys() == right.keys(), path
        for key in left:
            assert_equal(left[key], right[key], f"{path}/{key}")
    elif isinstance(left, float):
        assert left == pytest.approx(right), path
    else:
        assert left == right, path


def assert_ledgers_equal(left: MetricsRegistry, right: MetricsRegistry):
    assert_equal(scheduler_summary(left), scheduler_summary(right))
    assert_equal(cell_summaries(left), cell_summaries(right))


@settings(max_examples=80, deadline=None)
@given(a=leaves, b=leaves, c=leaves)
def test_fold_is_associative(a, b, c):
    # (a + b) + c  ==  a + (b + c): a folded ledger's payload is itself
    # a mergeable leaf, whichever side accumulated first.
    left = fold(fold(a, b).to_dict(), c)
    right = fold(a, fold(b, c).to_dict())
    assert_ledgers_equal(left, right)
    assert scheduler_summary(left)["summaries_merged"] == 3


@settings(max_examples=50, deadline=None)
@given(payloads=st.lists(leaves, min_size=1, max_size=6))
def test_fold_counts_every_leaf(payloads):
    merged = scheduler_summary(fold(*payloads))
    singles = [scheduler_summary(fold(payload)) for payload in payloads]
    assert merged["summaries_merged"] == len(payloads)
    for key in ("frames_submitted", "frames_detected", "frames_shed", "flushes"):
        assert merged[key] == sum(single[key] for single in singles)
    assert merged["frames_missing"] == (
        merged["frames_submitted"]
        - merged["frames_detected"]
        - merged["frames_shed"]
    )
    # The per-cell view and the summary are two renderings of one
    # ledger: they cannot disagree.
    cells = cell_summaries(fold(*payloads))
    assert merged["frames_detected"] == sum(c["frames"] for c in cells.values())
    assert merged["frames_late"] == sum(c["frames_late"] for c in cells.values())


def test_dead_lane_stays_visible():
    # A crashed/empty worker's ledger is one run tick and nothing else —
    # alone it reads as a perfect lane (hit-rate over zero frames is
    # 1.0).  Merged, it must still be countable and must not improve the
    # fleet's numbers.
    live = leaf_payload(
        [("cell0", "deadline", 9, 1 / 9, 1, 0.1)] * 10, shed=4, vanished=6
    )
    dead = leaf_payload([])
    assert scheduler_summary(fold(dead))["deadline_hit_rate"] == 1.0  # the trap
    merged = scheduler_summary(fold(live, dead))
    assert merged["summaries_merged"] == 2
    assert merged["flush_reasons"] == {"deadline": 10}
    assert merged["deadline_hit_rate"] == pytest.approx(80 / 90)
    # 100 submitted, 90 detected, 4 shed: six frames vanished, and the
    # fold says so instead of hiding them in a ratio.
    assert merged["frames_missing"] == 6


# -- merge-order invariance (regression) -------------------------------
#
# The fleet folds chunk ledgers in whatever order workers reply.
# Derived statistics (hit rate, mean latency, the latency percentiles)
# are recomputed from the merged totals — never averaged across leaves,
# never stored — so any fold order lands on identical numbers.


@settings(max_examples=40, deadline=None)
@given(chunks=st.lists(st.lists(latencies, min_size=1, max_size=20),
                       min_size=2, max_size=4))
def test_fold_order_invariance_for_derived_stats(chunks):
    payloads = [
        leaf_payload(
            [("cell-0", "target", 2, 0.0, 1, latency) for latency in chunk]
        )
        for chunk in chunks
    ]
    forward = scheduler_summary(fold(*payloads))
    backward = scheduler_summary(fold(*reversed(payloads)))
    every = [latency for chunk in chunks for latency in chunk]
    # mean_latency_s is recomputed from merged sum/count, so both fold
    # orders agree with each other and with the pooled mean.
    assert forward["mean_latency_s"] == pytest.approx(backward["mean_latency_s"])
    assert forward["mean_latency_s"] == pytest.approx(sum(every) / len(every))
    # The histogram merge is bucket addition: percentiles are exactly
    # fold-order invariant (no approx needed), and equal to the
    # bucket-wise sum of the leaves.
    assert forward["latency_percentiles"] == backward["latency_percentiles"]
    assert forward["latency_hist"]["counts"] == backward["latency_hist"]["counts"]
    assert forward["latency_hist"]["counts"] == [
        sum(column)
        for column in zip(
            *(
                scheduler_summary(fold(payload))["latency_hist"]["counts"]
                for payload in payloads
            )
        )
    ]
    # latency is re-derived as completed - arrived inside the record,
    # so compare to float precision, not bit-exactly.
    assert forward["max_latency_s"] == pytest.approx(max(every))
    assert forward["latency_percentiles"]["p999"] <= forward["max_latency_s"]


def test_rates_are_recomputed_not_averaged():
    # 1 of 10 late, then 90 of 90 late: the fleet rate is 9/100 on
    # time, not the mean (0.45) of the two lanes' rates — and no lane's
    # rate survives as a stored value that could win the fold.
    good = leaf_payload([("cell0", "target", 10, 0.1, 1, 0.001)])
    bad = leaf_payload([("cell1", "target", 90, 1.0, 1, 0.001)])
    for order in ((good, bad), (bad, good)):
        merged = fold(*order)
        assert scheduler_summary(merged)["deadline_hit_rate"] == pytest.approx(0.09)
        assert not merged.to_dict()["gauges"].keys() & {"repro_deadline_hit_rate"}
    cells = cell_summaries(fold(good, bad))
    assert cells["cell0"]["deadline_hit_rate"] == pytest.approx(0.9)
    assert cells["cell1"]["deadline_hit_rate"] == 0.0


def test_fold_tolerates_leaves_without_histograms():
    # A lane that never flushed has no latency series (and a hand-built
    # payload may lack the "histograms" block altogether); the fold must
    # accept it in any position and keep the histogram it does have.
    with_hist = leaf_payload(
        [("cell0", "target", 2, 0.0, 1, 0.01), ("cell0", "target", 2, 0.0, 1, 0.02)]
    )
    without = {"counters": {"repro_scheduler_runs_total": 1}}
    for ordering in ((with_hist, without), (without, with_hist)):
        merged = scheduler_summary(fold(*ordering))
        assert merged["summaries_merged"] == 2
        assert merged["mean_latency_s"] == pytest.approx(0.015)
        assert sum(merged["latency_hist"]["counts"]) == 2


# -- labels --------------------------------------------------------------

#: Cell ids arrive from outside (`CellFarm.add_cell` takes any string).
HOSTILE_CELL = 'ce"ll,}\n\\0'


@settings(max_examples=40, deadline=None)
@given(cell=st.text(max_size=12), frames=st.integers(min_value=1, max_value=99))
def test_labels_round_trip_through_json(cell, frames):
    for cell_id in (cell, HOSTILE_CELL + cell):
        payload = leaf_payload([(cell_id, "target", frames, 0.0, 1, 0.001)])
        wire = json.loads(json.dumps(payload))
        merged = fold(wire, wire)
        assert cell_summaries(merged)[cell_id]["frames"] == 2 * frames
        assert merged.to_dict()["counters"].keys() == payload["counters"].keys()
        # One line per sample: the newline in the id is escaped (the
        # exposition format ends a line at "\n" and nothing else).
        lines = merged.prometheus_text().split("\n")
        detected = [
            line for line in lines if line.startswith("repro_frames_detected_total{")
        ]
        assert len(detected) == 1 and detected[0].endswith(f"}} {2.0 * frames}")


def test_corrupted_keys_are_refused_not_aliased():
    registry = fold(leaf_payload([("cell0", "target", 7, 0.0, 1, 0.001)]))
    for key in (
        'repro_frames_detected_total{cell="cell0"',  # truncated
        'repro_frames_detected_total{cell="cell0"}x',
        'repro_frames_detected_total{cell=cell0}',
        'repro_frames_detected_total{cell="a",cell="b"}',
        'repro_flushes_total{reason="target",cell="cell0"}',  # not canonical
        'repro frames{cell="cell0"}',
        'repro_frames_detected_total{cell="line\nbreak"}',  # raw newline
    ):
        with pytest.raises(ConfigurationError):
            registry.merge_dict({"counters": {key: 1}})
    assert cell_summaries(registry)["cell0"]["frames"] == 7


def test_kind_and_edges_conflicts_still_raise():
    registry = fold(leaf_payload([("cell0", "target", 7, 0.0, 1, 0.001)]))
    with pytest.raises(ConfigurationError, match="counter"):
        registry.merge_dict(
            {"gauges": {'repro_frames_detected_total{cell="cell9"}': 1.0}}
        )
    with pytest.raises(ConfigurationError, match="counter"):
        registry.gauge("repro_frames_detected_total", cell="cell9")
    foreign = {"edges": [1.0, 2.0], "counts": [1, 0, 0], "sum": 0.5,
               "min": 0.5, "max": 0.5}
    for key in (
        'repro_flush_latency_seconds{cell="cell0"}',  # an existing series
        'repro_flush_latency_seconds{cell="cell9"}',  # a new one of the family
    ):
        with pytest.raises(ConfigurationError, match="edges"):
            registry.merge_dict({"histograms": {key: foreign}})
    with pytest.raises(ConfigurationError, match="counts"):
        registry.merge_dict(
            {
                "histograms": {
                    'repro_flush_latency_seconds{cell="cell0"}': {
                        **scheduler_summary(registry)["latency_hist"],
                        "counts": [1],
                    }
                }
            }
        )
