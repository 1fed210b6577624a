"""Observability wired through the stack: spec, scheduler, fleet.

Three layers under test:

* :class:`~repro.api.TracingSpec` — config round-trip, default-off,
  and ``build_stack`` attaching one hub to the whole stack;
* the streaming scheduler — every coalesced flush emits one ``flush``
  span whose attributes agree with the returned telemetry, with the
  ``detect``/``prepare`` kernel spans nested inside it, and its ledger
  folds into the hub's registry (labelled series, derived hit rate);
* the farm — worker chunk replies carry spans + the chunk's ledger, the
  coordinator folds them into per-worker lanes of one merged timeline
  (restart instants included) and one fleet ledger.

Across those traced runs the span and instant names emitted are exactly
the ``SPAN_NAMES`` / ``EVENT_NAMES`` catalogue.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
    TracingSpec,
    build_stack,
)
from repro.channel.fading import rayleigh_channels
from repro.control.workload import WorkloadScenario
from repro.errors import ConfigurationError
from repro.farm import FarmCoordinator
from repro.flexcore.detector import FlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.obs import (
    EVENT_NAMES,
    EVENT_WORKER_RESTART,
    MAIN_PID,
    SPAN_CHUNK,
    SPAN_DETECT,
    SPAN_FLUSH,
    SPAN_GOVERNOR_TICK,
    SPAN_NAMES,
    SPAN_PREPARE,
    WORKER_PID_BASE,
    Observability,
    clear_global,
    get_global,
    install_global,
    scheduler_summary,
)
from repro.runtime import (
    ArrayBackend,
    ContextCache,
    CountingArrayModule,
    DetectionService,
    FrameArrival,
    StreamingScheduler,
    UplinkBatch,
)
from tests.conftest import one_cell_farm

NOISE_VAR = noise_variance_for_snr_db(18.0)


def tiny_config(tracing=None, governed=False, cells=4):
    return StackConfig(
        detector=DetectorSpec("flexcore", 2, 2, 4, params={"num_paths": 4}),
        backend=BackendSpec("serial"),
        farm=FarmSpec(streaming=True, cells=cells),
        scheduler=SchedulerSpec(),
        governor=GovernorSpec(policy="aimd", paths_min=1, paths_max=4)
        if governed
        else None,
        tracing=tracing if tracing is not None else TracingSpec(),
    )


class TestTracingSpec:
    def test_default_off_and_round_trip(self):
        config = tiny_config()
        assert config.tracing.enabled is False
        assert config.tracing.build() is None
        payload = config.to_dict()
        assert payload["tracing"] == {"enabled": False, "max_events": 65536}
        assert StackConfig.from_dict(payload) == config

    def test_enabled_round_trip_builds_hub(self):
        config = tiny_config(TracingSpec(enabled=True, max_events=128))
        clone = StackConfig.from_dict(config.to_dict())
        assert clone.tracing == TracingSpec(enabled=True, max_events=128)
        obs = clone.tracing.build()
        assert isinstance(obs, Observability)
        assert obs.tracer.max_events == 128
        assert "traced" in clone.describe()

    def test_rejects_bad_max_events(self):
        with pytest.raises(ConfigurationError):
            TracingSpec(enabled=True, max_events=0)

    def test_split_cells_carries_tracing(self):
        config = tiny_config(TracingSpec(enabled=True))
        for sub in config.split_cells(2):
            assert sub.tracing == config.tracing

    def test_build_stack_attaches_one_hub(self):
        stack = build_stack(tiny_config(TracingSpec(enabled=True)))
        try:
            assert isinstance(stack.obs, Observability)
            assert stack.service.obs is stack.obs
        finally:
            stack.close()

    def test_a_global_hub_takes_precedence_until_cleared(self):
        hub = install_global(Observability())
        try:
            assert get_global() is hub
            stack = build_stack(tiny_config())
            try:
                assert stack.obs is hub and stack.service.obs is hub
            finally:
                stack.close()
        finally:
            clear_global()
        assert get_global() is None
        stack = build_stack(tiny_config())
        try:
            assert stack.obs is None
        finally:
            stack.close()

    def test_untraced_stack_export_raises(self, tmp_path):
        stack = build_stack(tiny_config())
        try:
            assert stack.obs is None
            with pytest.raises(ConfigurationError, match="TracingSpec"):
                stack.export_trace(tmp_path / "trace.json")
            with pytest.raises(ConfigurationError, match="TracingSpec"):
                stack.dump_metrics(tmp_path / "metrics.prom")
        finally:
            stack.close()


def run_scheduler(obs, subcarriers=3, frames=4):
    """The traced streaming farm: one cell, flushed by batch target."""
    system = MimoSystem(3, 3, QamConstellation(4))
    detector = FlexCoreDetector(system, num_paths=4)
    rng = np.random.default_rng(7)
    channels = rayleigh_channels(subcarriers, 3, 3, rng)
    received = np.empty((subcarriers, frames, 3), dtype=np.complex128)
    for sc in range(subcarriers):
        indices = random_symbol_indices(frames, 3, system.constellation, rng)
        received[sc] = apply_channel(
            channels[sc],
            system.constellation.points[indices],
            NOISE_VAR,
            rng,
        )

    async def run():
        async with StreamingScheduler(
            one_cell_farm(detector, obs=obs),
            batch_target=frames,
            slot_budget_s=math.inf,
        ) as scheduler:
            futures = [
                await scheduler.submit(
                    FrameArrival(channels[sc], received[sc, frame], NOISE_VAR)
                )
                for sc in range(subcarriers)
                for frame in range(frames)
            ]
            await scheduler.flush()
            for future in futures:
                await future
            return scheduler.telemetry

    return asyncio.run(run())


def run_fleet():
    """The traced kill-recovery fleet: two governed workers, worker 0
    killed once; returns the report and the coordinator's hub."""
    config = tiny_config(TracingSpec(enabled=True), governed=True)
    scenario = WorkloadScenario(
        scenario="steady",
        cells=config.farm.cell_ids(),
        slots=6,
        subcarriers=3,
        seed=11,
    )
    with FarmCoordinator(
        config, 2, slots_per_chunk=2, kill_script={0: 1}
    ) as coordinator:
        report = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
        return report, coordinator.obs


def run_array_batch(obs):
    """A cold then a warm batch on a transfer-counting array backend."""
    rng = np.random.default_rng(3)
    detector = FlexCoreDetector(MimoSystem(2, 2, QamConstellation(4)), num_paths=4)
    batch = UplinkBatch(
        channels=rayleigh_channels(3, 2, 2, rng),
        received=rng.standard_normal((3, 2, 2)) + 0j,
        noise_var=0.1,
    )
    service = DetectionService(ArrayBackend(CountingArrayModule()), obs=obs)
    cache = ContextCache()
    for _ in range(2):
        service.detect(detector, batch, cache=cache)


class TestSchedulerSpans:
    def test_flush_spans_match_telemetry(self):
        obs = Observability()
        telemetry = run_scheduler(obs)
        events = obs.tracer.events
        flushes = [e for e in events if e["name"] == SPAN_FLUSH]
        assert len(flushes) == telemetry.flushes
        assert sum(f["args"]["frames"] for f in flushes) == (
            telemetry.frames_detected
        )
        for flush in flushes:
            args = flush["args"]
            assert args["reason"] in telemetry.flush_reasons
            assert args["deadline_met"] is True
            # The span opens before the service call and stays open
            # across the post-completion bookkeeping, and latency counts
            # from the oldest *arrival*: the service time is bounded by
            # both, while latency and span length are not ordered.
            assert 0.0 <= args["service_s"] <= args["latency_s"]
            assert args["service_s"] <= flush["dur"] / 1e6 + 1e-9
            assert len(args["coherence_key"]) == 16

    def test_coherence_key_tells_channels_apart(self):
        """The flush attribute digests the whole key, not its shared
        shape/noise prefix: two channels flushed apart carry two keys."""
        obs = Observability()
        detector = FlexCoreDetector(MimoSystem(3, 3, QamConstellation(4)), num_paths=4)
        channels = rayleigh_channels(2, 3, 3, np.random.default_rng(5))

        async def run():
            async with StreamingScheduler(
                one_cell_farm(detector, obs=obs), batch_target=1, slot_budget_s=math.inf
            ) as scheduler:
                for channel in channels:
                    future = await scheduler.submit(
                        FrameArrival(channel, np.ones(3, dtype=complex), NOISE_VAR)
                    )
                    await scheduler.flush()
                    await future

        asyncio.run(run())
        keys = [e["args"]["coherence_key"] for e in obs.tracer.events if e["name"] == SPAN_FLUSH]
        assert len(keys) == 2 and keys[0] != keys[1]
        assert all(len(key) == 16 for key in keys)

    def test_kernel_spans_nest_inside_flush(self):
        obs = Observability()
        run_scheduler(obs)
        events = obs.tracer.events
        detects = [e for e in events if e["name"] == SPAN_DETECT]
        prepares = [e for e in events if e["name"] == SPAN_PREPARE]
        assert detects and prepares
        assert all(e["args"]["parent"] == SPAN_FLUSH for e in detects)
        assert all(e["args"]["depth"] >= 1 for e in detects)
        # Flush coalescing must keep span attribute integrity: every
        # prepare reports its cache movement, every event its lane.
        for event in prepares:
            assert "cache_hits" in event["args"]
            assert "cache_misses" in event["args"]
        assert {e["pid"] for e in events} == {MAIN_PID}

    def test_metrics_series_recorded(self):
        obs = Observability()
        telemetry = run_scheduler(obs)
        # The scheduler's ledger reached the hub: the hub's views are
        # the telemetry's.
        assert scheduler_summary(obs.metrics) == telemetry.as_dict()
        text = obs.prometheus_text()
        assert "# TYPE repro_flush_latency_seconds histogram" in text
        assert (
            f'repro_flush_latency_seconds_count{{cell="cell0"}} '
            f"{telemetry.flushes}" in text
        )
        assert (
            f'repro_frames_detected_total{{cell="cell0"}} '
            f"{float(telemetry.frames_detected)}" in text
        )
        assert f'repro_flushes_total{{cell="cell0",reason="target"}}' in text
        assert "# TYPE repro_deadline_hit_rate gauge" in text
        assert "repro_deadline_hit_rate 1.0" in text
        # An infinite slot budget never observes a deadline margin, so
        # the signed-margin series is never even registered.
        assert "repro_deadline_margin_seconds" not in text

    def test_telemetry_summary_has_percentiles(self):
        telemetry = run_scheduler(obs=None)
        summary = telemetry.as_dict()
        quantiles = summary["latency_percentiles"]
        assert set(quantiles) == {"p50", "p95", "p99", "p999"}
        assert quantiles["p50"] <= quantiles["p999"]
        hist = summary["latency_hist"]
        assert sum(hist["counts"]) == telemetry.flushes


class TestFleetTimeline:
    def test_merged_timeline_has_worker_lanes_and_restart(self):
        report, obs = run_fleet()
        assert [r.reason for r in report.restarts] == ["died"]
        events = obs.tracer.events
        names = {e["name"] for e in events}
        # One merged timeline: coordinator chunk spans on the main
        # lane, both workers' spans on their own lanes, the governor
        # ticking inside the workers, and the restart marked.
        assert SPAN_CHUNK in names
        assert SPAN_GOVERNOR_TICK in names
        assert {e["pid"] for e in events} == {
            MAIN_PID,
            WORKER_PID_BASE,
            WORKER_PID_BASE + 1,
        }
        restarts = [
            e for e in events if e["name"] == EVENT_WORKER_RESTART
        ]
        assert len(restarts) == 1
        assert restarts[0]["ph"] == "i"
        assert restarts[0]["pid"] == WORKER_PID_BASE  # worker 0's lane
        payload = obs.tracer.chrome_payload()
        lane_names = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M"
        }
        assert lane_names == {
            MAIN_PID: "main",
            WORKER_PID_BASE: "worker-0",
            WORKER_PID_BASE + 1: "worker-1",
        }
        # Chunk ledgers folded without double counting across the
        # replay: the hub detects what the summary says was detected.
        assert (
            obs.metrics.total("repro_frames_detected_total")
            == report.frames_detected
            == report.frames_offered
        )
        assert 'repro_frames_detected_total{cell="cell0"}' in obs.prometheus_text()
        assert "repro_worker_restarts_total 1.0" in obs.prometheus_text()


class TestSpanCatalogue:
    """The span twin of ``TestMetricCatalogue``: the traced runs above —
    streaming farm, kill-recovery fleet, cold + warm array batch — emit
    only catalogued names, and every catalogued name is emitted."""

    @staticmethod
    def assert_traces_match_catalogue():
        scheduler_obs, array_obs = Observability(), Observability()
        run_scheduler(scheduler_obs)
        run_array_batch(array_obs)
        _, fleet_obs = run_fleet()
        events = [
            event
            for obs in (scheduler_obs, fleet_obs, array_obs)
            for event in obs.tracer.events
        ]
        spans = {e["name"] for e in events if e["ph"] == "X"}
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert spans == set(SPAN_NAMES), spans ^ set(SPAN_NAMES)
        assert instants == set(EVENT_NAMES), instants ^ set(EVENT_NAMES)

    def test_traced_runs_emit_exactly_the_catalogue(self):
        self.assert_traces_match_catalogue()

    def test_an_uncatalogued_span_name_fails(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.scheduler.SPAN_FLUSH", "flsh")
        with pytest.raises(AssertionError, match="flsh"):
            self.assert_traces_match_catalogue()
