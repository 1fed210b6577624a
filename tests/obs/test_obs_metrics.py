"""Properties of the metrics registry: counters, gauges, histograms.

The histogram is the fleet-mergeable latency primitive: fixed bucket
edges, so merging is elementwise count addition — associative and
commutative, and a merged histogram is *exactly* the histogram of the
concatenated samples.  Percentiles read from bucket upper edges, so
they are conservative (never under-report) and bounded by the bucket
the true quantile falls in.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    DEADLINE_MARGIN_EDGES_S,
    DEFAULT_LATENCY_EDGES_S,
    Histogram,
    MetricsRegistry,
)
from repro.obs.metrics import parse_key, series_key

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

samples = st.lists(
    st.floats(
        min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False
    ),
    max_size=60,
)


def hist_of(values, edges=DEFAULT_LATENCY_EDGES_S):
    hist = Histogram(edges)
    for value in values:
        hist.observe(value)
    return hist


class TestHistogram:
    def test_edges_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram([0.1, 0.1, 0.2])
        with pytest.raises(ConfigurationError):
            Histogram([])

    @settings(max_examples=60, deadline=None)
    @given(a=samples, b=samples, c=samples)
    def test_merge_is_concatenation(self, a, b, c):
        # ((a + b) + c) merged in any grouping == histogram of a+b+c.
        left = hist_of(a)
        left.merge(hist_of(b))
        left.merge(hist_of(c))
        right = hist_of(b)
        right.merge(hist_of(c))
        right.merge(hist_of(a))
        everything = hist_of(a + b + c)
        for merged in (left, right):
            # Bucket counts (what percentiles read) are exactly the
            # concatenation's; the float sum only to addition-order.
            assert merged.counts == everything.counts
            assert merged.min == everything.min
            assert merged.max == everything.max
            assert merged.sum == pytest.approx(everything.sum)
        assert left.count == len(a) + len(b) + len(c)

    @settings(max_examples=60, deadline=None)
    @given(values=samples)
    def test_percentiles_are_conservative_and_bounded(self, values):
        hist = hist_of(values)
        if not values:
            assert hist.percentile(0.5) == 0.0
            return
        for q in (0.5, 0.95, 0.99):
            estimate = hist.percentile(q)
            exact = sorted(values)[max(0, math.ceil(q * len(values)) - 1)]
            # The estimate is the upper edge of the bucket holding the
            # true quantile: never below it, and no further above it
            # than the next bucket edge (or the observed max, in the
            # overflow bucket).
            assert estimate >= exact or estimate == pytest.approx(exact)
            edges = [e for e in DEFAULT_LATENCY_EDGES_S if e >= exact]
            upper = edges[0] if edges else max(values)
            assert estimate <= upper + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(values=samples)
    def test_percentiles_never_exceed_the_observed_max(self, values):
        # A bucket's upper edge can sit far above anything observed
        # (p99 = 10 ms with max 6.7 ms); the cap is exact under merge
        # because max folds by max.
        live = hist_of(values)
        registry = MetricsRegistry()
        registry.histogram("repro_flush_latency_seconds", cell="a")
        for _ in range(2):
            registry.merge_dict(
                {"histograms": {'repro_flush_latency_seconds{cell="a"}': live.to_dict()}}
            )
        merged = registry.histogram("repro_flush_latency_seconds", cell="a")
        for hist in (live, merged):
            quantiles = list(hist.quantiles().values())
            assert quantiles == sorted(quantiles)
            assert quantiles[-1] <= (hist.max if values else 0.0)
        assert merged.count == 2 * len(values)

    def test_percentile_monotone_in_q(self):
        hist = hist_of([0.001, 0.004, 0.02, 0.4, 7.0])
        qs = (0.1, 0.5, 0.9, 0.99, 1.0)
        estimates = [hist.percentile(q) for q in qs]
        assert estimates == sorted(estimates)

    def test_overflow_bucket_reports_observed_max(self):
        hist = hist_of([15.0, 42.0])  # beyond the last edge (10.0)
        assert hist.percentile(0.99) == pytest.approx(42.0)

    def test_merge_rejects_mismatched_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram([1.0, 2.0]).merge(Histogram([1.0, 3.0]))

    def test_round_trips_through_dict(self):
        hist = hist_of([0.002, 0.3], DEADLINE_MARGIN_EDGES_S)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.quantiles() == hist.quantiles()

    def test_signed_margin_edges_cover_early_and_late(self):
        hist = Histogram(DEADLINE_MARGIN_EDGES_S)
        hist.observe(-0.004)  # early
        hist.observe(0.0025)  # late
        assert hist.count == 2
        assert hist.min < 0 < hist.max


class TestRegistry:
    def test_counters_accumulate_and_reject_negatives(self):
        registry = MetricsRegistry()
        registry.counter("repro_frames_detected_total").inc(3)
        registry.counter("repro_frames_detected_total").inc()
        with pytest.raises(ConfigurationError):
            registry.counter("repro_frames_detected_total").inc(-1)
        text = registry.prometheus_text()
        assert "repro_frames_detected_total 4.0" in text

    def test_name_and_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_flushes_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_flushes_total")
        with pytest.raises(ConfigurationError):
            registry.counter("not a metric name")
        registry.histogram("repro_flush_latency_seconds")
        with pytest.raises(ConfigurationError):
            registry.histogram("repro_flush_latency_seconds", edges=[1.0, 2.0])

    def test_uncatalogued_payload_name_fails_the_fold(self):
        # A worker's chunk reply is outside input: a series under a base
        # name the catalogue does not hold is refused when it would be
        # created, by name, and nothing of it is left behind.
        registry = MetricsRegistry()
        registry.counter("repro_flushes_total", cell="a").inc(2)
        before = registry.to_dict()
        with pytest.raises(ConfigurationError, match="repro_bogus_total"):
            registry.merge_dict(
                {
                    "counters": {"repro_bogus_total": 1},
                    "gauges": {'repro_prepare_cache_entries{cell="a"}': 3},
                    "histograms": {
                        "repro_flush_latency_seconds": hist_of([0.2]).to_dict()
                    },
                }
            )
        assert registry.to_dict() == before
        assert "repro_bogus_total" not in registry.prometheus_text()

    def test_misspelled_read_raises_instead_of_reporting_zero(self):
        registry = MetricsRegistry()
        registry.counter("repro_frames_detected_total").inc(5)
        assert registry.total("repro_frames_late_total") == 0  # absent, known
        with pytest.raises(ConfigurationError, match="repro_frames_detectd_total"):
            registry.total("repro_frames_detectd_total")
        with pytest.raises(ConfigurationError, match="METRIC_NAMES"):
            registry.series("repro_frames_detectd_total")

    def test_prometheus_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_flush_latency_seconds", edges=[0.1, 1.0])
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        lines = registry.prometheus_text().splitlines()
        assert "# TYPE repro_flush_latency_seconds histogram" in lines
        assert 'repro_flush_latency_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_flush_latency_seconds_bucket{le="1.0"} 2' in lines
        assert 'repro_flush_latency_seconds_bucket{le="+Inf"} 3' in lines
        assert any(
            line.startswith("repro_flush_latency_seconds_count 3") for line in lines
        )

    def test_merge_dict_folds_drained_deltas(self):
        # Each payload is a complete ledger of its own (a chunk's), not
        # a delta drained from a long-lived registry: folding two of
        # them counts each once.
        sink = MetricsRegistry()
        sink.counter("repro_flushes_total").inc(1)
        for flushes, latency in ((5, 0.3), (2, 0.004)):
            source = MetricsRegistry()
            source.counter("repro_flushes_total").inc(flushes)
            source.counter("repro_flushes_total", cell="a").inc(flushes)
            source.gauge("repro_prepare_cache_entries", cell="a").set(flushes)
            source.histogram("repro_flush_latency_seconds").observe(latency)
            sink.merge_dict(source.to_dict())
        text = sink.prometheus_text()
        assert "repro_flushes_total 8.0" in text
        assert 'repro_flushes_total{cell="a"} 7.0' in text
        assert 'repro_prepare_cache_entries{cell="a"} 2.0' in text  # last write
        assert "repro_flush_latency_seconds_count 2" in text
        assert text.count("# TYPE repro_flushes_total counter") == 1
        assert sink.total("repro_flushes_total") == 15


class TestSeriesKeys:
    """A series is stored under its exposition spelling, and label values
    may come from outside the program (cell ids): every value survives
    the escape and the parse, and a key no :func:`series_key` call could
    have written is refused rather than aliasing another series."""

    @pytest.mark.parametrize(
        "value",
        ["cell0", "a\\b", 'say "hi"', "two\nlines", "", "zürich", "ends\\", "a,b}c{d=e"],
        ids=["plain", "backslash", "quotes", "newline", "empty", "unicode", "trailing-backslash", "delimiters"],
    )
    def test_a_label_value_round_trips(self, value):
        key = series_key("repro_flushes_total", {"cell": value})
        assert "\n" not in key  # one line of exposition
        assert parse_key(key) == ("repro_flushes_total", (("cell", value),))

    def test_labels_are_sorted_whoever_spells_them(self):
        one = series_key("repro_flushes_total", {"cell": "a", "backend": "numpy"})
        other = series_key("repro_flushes_total", {"backend": "numpy", "cell": "a"})
        assert one == other == 'repro_flushes_total{backend="numpy",cell="a"}'
        assert series_key("repro_flushes_total", {}) == "repro_flushes_total"

    @pytest.mark.parametrize(
        "key",
        [
            "1repro_flushes_total",
            "repro flushes",
            'repro_flushes_total{cell="a"b"}',
            'repro_flushes_total{cell="a",}',
            'repro_flushes_total{z="1",a="2"}',
            'repro_flushes_total{cell="a"',
            'repro_flushes_total{cell="a\\q"}',
            "repro_flushes_total{cell=a}",
        ],
        ids=["digit-first", "space", "bare-quote", "trailing-comma", "unsorted", "unclosed", "bad-escape", "unquoted"],
    )
    def test_a_key_series_key_cannot_write_is_refused(self, key):
        with pytest.raises(ConfigurationError, match="invalid metric series"):
            parse_key(key)

    def test_an_outside_cell_id_folds_and_exposes_escaped(self):
        cell = 'east\n"7"\\'
        source = MetricsRegistry()
        source.counter("repro_flushes_total", cell=cell).inc(2)
        sink = MetricsRegistry()
        sink.merge_dict(source.to_dict())
        sink.merge_dict(source.to_dict())
        assert sink.total("repro_flushes_total") == 4
        (line,) = [
            line for line in sink.prometheus_text().splitlines()
            if line.startswith("repro_flushes_total{")
        ]
        assert line == 'repro_flushes_total{cell="east\\n\\"7\\"\\\\"} 4.0'


class TestMetricCatalogue:
    """The registry refuses a series outside ``METRIC_NAMES``, so what a
    run writes is catalogued by construction; these prove the converse —
    nothing in the catalogue is dead."""

    def test_a_real_runs_series_are_catalogued(self):
        import asyncio

        import numpy as np

        from repro.flexcore.detector import FlexCoreDetector
        from repro.mimo.system import MimoSystem
        from repro.modulation.constellation import QamConstellation
        from repro.obs import METRIC_NAMES, Observability
        from repro.obs.metrics import parse_key
        from repro.runtime import (
            ArrayBackend,
            CellFarm,
            CountingArrayModule,
            FrameArrival,
        )

        detector = FlexCoreDetector(MimoSystem(2, 2, QamConstellation(4)), num_paths=4)
        obs = Observability()
        farm = CellFarm(ArrayBackend(CountingArrayModule()), obs=obs)
        farm.add_cell("a", detector)
        farm.add_cell("b", detector)
        rng = np.random.default_rng(1)

        async def drive():
            async with farm.scheduler(batch_target=2, slot_budget_s=0.5) as scheduler:
                futures = [
                    await scheduler.submit(
                        FrameArrival(
                            rng.standard_normal((2, 2)) + 0j,
                            rng.standard_normal((frames, 2)) + 0j,
                            0.1,
                            cell=cell,
                        )
                    )
                    for cell, frames in (("a", 2), ("b", 2), ("a", 1))
                ]
                await scheduler.flush()
                await asyncio.gather(*futures)

        asyncio.run(drive())
        farm.close()
        written = {
            parse_key(key)[0]
            for table in obs.metrics.to_dict().values()
            for key in table
        }
        # A broad run: everything but the restart count (no fleet here)
        # and the derived gauge, which is never stored.
        assert set(METRIC_NAMES) - written == {
            "repro_deadline_hit_rate",
            "repro_worker_restarts_total",
        }
        assert "repro_deadline_hit_rate" in obs.prometheus_text()

    def test_every_catalogue_name_has_a_call_site(self):
        import ast
        import re

        from repro.obs import METRIC_NAMES

        written = set()
        for path in SRC.rglob("*.py"):
            if path.name == "metrics.py" and path.parent.name == "obs":
                continue  # the catalogue itself
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    written.add(node.args[0].value)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    # A series written as exposition text (the derived gauge).
                    written.update(re.findall(r"# TYPE (\w+) ", node.value))
        assert set(METRIC_NAMES) <= written, set(METRIC_NAMES) - written
