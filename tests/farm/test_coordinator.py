"""Tests for the multi-process farm coordinator.

The supervision contract under test:

* the fleet partitions one ``StackConfig`` exactly (disjoint cells,
  exact frame accounting, invariant under worker count);
* a worker SIGKILLed mid-scenario is re-spawned *from its serialized
  config slice*, the lost chunk is replayed from the same seeds, and
  the restart lands in the merged telemetry;
* a hung worker (reply past the timeout) takes the same recovery path,
  and so does a worker found dead when a round sends to it;
* a worker that *reports* an exception, or replies with bytes that are
  not JSON, is a deterministic failure — typed error out, no futile
  re-spawn loop;
* global path-budget awards never exceed the configured pool.

Everything runs the tiny 2x2 4-QAM stack so the whole file stays
tier-1 fast.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import replace
from unittest import mock

import pytest

from repro import native
from repro.api import (
    BackendSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
)
from repro.control.workload import WorkloadScenario
from repro.errors import ConfigurationError, WorkerCrashError
from repro.farm import FarmCoordinator
from repro.farm.coordinator import FleetReport, WorkerRestart, _Handle
from repro.flexcore.detector import FlexCoreDetector
from repro.mimo.model import noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.obs import Observability
from tests.conftest import make_block

NOISE_VAR = noise_variance_for_snr_db(20.0)


def make_config(cells=4, governed=False, total_budget=None):
    return StackConfig(
        detector=DetectorSpec(
            "flexcore", 2, 2, 4, params={"num_paths": 4}
        ),
        backend=BackendSpec("serial"),
        farm=FarmSpec(streaming=True, cells=cells),
        scheduler=SchedulerSpec(),
        governor=GovernorSpec(
            policy="aimd",
            paths_min=1,
            paths_max=4,
            total_path_budget=total_budget,
        )
        if governed
        else None,
    )


def make_scenario(config, slots=6, seed=11):
    return WorkloadScenario(
        scenario="steady",
        cells=config.farm.cell_ids(),
        slots=slots,
        subcarriers=3,
        seed=seed,
    )


def test_requires_streaming_config():
    batch_config = StackConfig(
        detector=DetectorSpec("flexcore", 2, 2, 4)
    )
    with pytest.raises(ConfigurationError, match="streaming"):
        FarmCoordinator(batch_config, 1)


@pytest.mark.parametrize("elapsed_s, throughput", [(2.0, 50.0), (0.0, 0.0)], ids=["ran", "empty"])
def test_report_throughput_and_payload(elapsed_s, throughput):
    """The report's rate is detected frames over wall time (zero for a
    run that took none), and its payload is plain JSON."""
    report = FleetReport(
        workers=2, slots=4, slot_interval_s=0.0, frames_offered=120, elapsed_s=elapsed_s,
        scheduler={"frames_detected": 100, "deadline_hit_rate": 0.9}, per_worker=[],
        cells={}, budgets={"cell0": 8}, restarts=[WorkerRestart(1, "died", "run_slots[0:2)")],
    )  # fmt: skip
    assert report.throughput_fps == throughput
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["throughput_fps"] == throughput and payload["frames_detected"] == 100
    assert payload["restarts"] == [{"worker": 1, "reason": "died", "phase": "run_slots[0:2)"}]


def test_fleet_accounts_for_every_frame():
    config = make_config()
    scenario = make_scenario(config)
    with FarmCoordinator(config, 2, slots_per_chunk=2) as coordinator:
        report = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
    assert report.workers == 2
    assert report.frames_offered == scenario.offered_frames()
    summary = report.scheduler
    assert (
        report.frames_detected + summary["frames_shed"]
        == report.frames_offered
    )
    assert summary["frames_missing"] == 0
    # 3 chunks x 2 workers folded into the fleet view.
    assert summary["summaries_merged"] == 6
    assert not report.restarts
    # Every fleet cell reports stats exactly once.
    assert sorted(report.cells) == sorted(config.farm.cell_ids())


def test_partition_is_invariant_under_worker_count():
    config = make_config()
    scenario = make_scenario(config)
    reports = []
    for workers in (1, 2, 4):
        with FarmCoordinator(config, workers) as coordinator:
            reports.append(
                coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
            )
    offered = {r.scheduler["frames_submitted"] for r in reports}
    detected = {r.frames_detected for r in reports}
    assert len(offered) == 1, "worker count changed the offered load"
    assert len(detected) == 1, "worker count changed the served load"


def test_killed_worker_respawns_and_replays():
    config = make_config()
    scenario = make_scenario(config, slots=8)
    with FarmCoordinator(
        config, 2, slots_per_chunk=2, kill_script={0: 1}
    ) as coordinator:
        report = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
    assert len(report.restarts) == 1
    restart = report.restarts[0]
    assert restart.worker == 0
    assert restart.reason == "died"
    assert "run_slots" in restart.phase
    # The replayed chunk regenerated the killed worker's frames: the
    # fleet still accounts for every offered frame.
    assert report.scheduler["frames_missing"] == 0
    assert (
        report.frames_detected + report.scheduler["frames_shed"]
        == report.frames_offered
    )
    # The restart is visible in the serialized telemetry too.
    assert report.as_dict()["restarts"] == [restart.as_dict()]


def test_kill_matches_clean_run_frame_for_frame():
    config = make_config()
    scenario = make_scenario(config, slots=8)
    with FarmCoordinator(config, 2, slots_per_chunk=2) as coordinator:
        clean = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
    with FarmCoordinator(
        config, 2, slots_per_chunk=2, kill_script={1: 2}
    ) as coordinator:
        killed = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
    assert killed.frames_detected == clean.frames_detected
    assert (
        killed.scheduler["frames_submitted"]
        == clean.scheduler["frames_submitted"]
    )


def test_hung_worker_is_recovered():
    config = make_config(cells=2)
    with FarmCoordinator(
        config, 2, reply_timeout_s=0.5
    ) as coordinator:
        for handle in coordinator._handles:
            os.kill(handle.process.pid, signal.SIGSTOP)
        replies = coordinator.ping()
        assert [r["type"] for r in replies] == ["pong", "pong"]
        assert {r.reason for r in coordinator.restarts} == {"hung"}
        # The re-spawned workers are healthy: a clean ping, no new
        # restarts.
        restarts_after_recovery = len(coordinator.restarts)
        coordinator.ping()
        assert len(coordinator.restarts) == restarts_after_recovery


def test_hung_workers_share_one_round_deadline():
    """Two workers SIGSTOPped before one ``ping`` are both found hung
    within one reply timeout (plus 10 %) of the round's sends, not one
    timeout after the other.  Time spent recovering the first worker is
    not counted against the second: its wait had already run out."""
    timeout = 0.5
    with FarmCoordinator(make_config(cells=2), 2, reply_timeout_s=timeout) as coordinator:
        sends, found, recovering = [], [], [0.0]
        send, recover = coordinator._send, coordinator._recover

        def timed_send(handle, message):
            send(handle, message)
            sends.append(time.monotonic())

        def timed_recover(handle, failure, phase):
            found.append((failure.reason, time.monotonic() - recovering[0]))
            start = time.monotonic()
            recover(handle, failure, phase)
            recovering[0] += time.monotonic() - start

        for handle in coordinator._handles:
            os.kill(handle.process.pid, signal.SIGSTOP)
        with mock.patch.object(coordinator, "_send", timed_send), mock.patch.object(
            coordinator, "_recover", timed_recover
        ):
            replies = coordinator.ping()
    assert [reply["type"] for reply in replies] == ["pong", "pong"]
    # sends[:2] are the round's; a recovery's ping comes after them.
    assert [reason for reason, _ in found] == ["hung", "hung"]
    assert [at - sends[1] <= 1.1 * timeout for _, at in found] == [True, True], found


def test_max_restarts_exhaustion_is_typed():
    config = make_config(cells=2)
    scenario = make_scenario(config)
    with FarmCoordinator(
        config, 2, max_restarts=0, kill_script={0: 0}
    ) as coordinator:
        with pytest.raises(WorkerCrashError) as excinfo:
            coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
    assert excinfo.value.worker == 0


def test_worker_error_is_deterministic_not_respawned():
    config = make_config(cells=2)
    with FarmCoordinator(config, 2) as coordinator:
        handle = coordinator._handles[0]
        # run_slots without an installed workload is a deterministic
        # worker-side ConfigurationError: it must surface typed, with
        # no futile recovery attempt.
        with pytest.raises(WorkerCrashError, match="workload"):
            coordinator._ask(
                handle,
                {
                    "type": "run_slots",
                    "start": 0,
                    "stop": 1,
                    "slot_interval_s": 0.0,
                },
                timeout=coordinator.reply_timeout_s,
                phase="run_slots[0:1)",
            )
        assert not coordinator.restarts


class _AliveProcess:
    def is_alive(self):
        return True


def test_garbled_reply_is_a_typed_failure_not_respawned():
    coordinator = FarmCoordinator(make_config(cells=2), 1)
    handle = _Handle(0, {})
    handle.conn, worker_end = multiprocessing.Pipe()
    handle.process = _AliveProcess()
    with handle.conn, worker_end:
        worker_end.send_bytes(b"\x80 not json")
        with pytest.raises(WorkerCrashError, match="worker 0") as excinfo:
            coordinator._await_reply(handle, "pong", timeout=1.0)
    assert excinfo.value.worker == 0
    assert not coordinator.restarts


def test_global_budget_awards_respect_the_pool():
    config = make_config(governed=True, total_budget=8)
    scenario = make_scenario(config, slots=6)
    with FarmCoordinator(config, 2, slots_per_chunk=2) as coordinator:
        report = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
    assert report.budgets, "governed fleet produced no awards"
    assert sorted(report.budgets) == sorted(config.farm.cell_ids())
    assert sum(report.budgets.values()) <= 8
    assert all(award >= 1 for award in report.budgets.values())


def test_budgets_survive_recovery():
    config = make_config(governed=True, total_budget=8)
    scenario = make_scenario(config, slots=8)
    with FarmCoordinator(
        config, 2, slots_per_chunk=2, kill_script={0: 1}
    ) as coordinator:
        report = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
    assert report.restarts
    assert sorted(report.budgets) == sorted(config.farm.cell_ids())
    assert sum(report.budgets.values()) <= 8


@pytest.mark.parametrize(
    "kill_script", [{5: 1}, {0: 3}, {-1: 0}], ids=["worker", "chunk", "negative"]
)
def test_kill_script_outside_the_fleet_or_the_run_is_refused(kill_script):
    """3 chunks of 2 workers: a kill that could never fire is refused
    before anything is dispatched, not silently dropped."""
    config = make_config()
    with FarmCoordinator(config, 2, slots_per_chunk=2, kill_script=kill_script) as coordinator:
        with pytest.raises(ConfigurationError, match="kill_script"):
            coordinator.run(make_scenario(config), NOISE_VAR, slot_interval_s=0.0)
        assert coordinator._workload_message is None and not coordinator.restarts


def test_worker_dead_between_runs_is_found_by_the_round():
    config = make_config(governed=True, total_budget=8)
    scenario = make_scenario(config, slots=4)
    with FarmCoordinator(config, 2, slots_per_chunk=2) as coordinator:
        first = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
        assert first.budgets and not first.restarts
        coordinator.kill_worker(1)
        process = coordinator._handles[1].process
        process.join(5.0)
        assert not process.is_alive()
        # The first send of the next run fails; the wait finds the
        # worker dead, and the recovery re-arms workload and budgets.
        second = coordinator.run(slot_interval_s=0.0)
    assert second.restarts == [WorkerRestart(1, "died", "run_slots[0:2)")]
    assert sorted(second.budgets) == sorted(config.farm.cell_ids())
    assert sum(second.budgets.values()) <= 8
    assert second.scheduler["frames_missing"] == 0
    assert second.frames_detected == second.frames_offered


def test_run_requires_workload():
    config = make_config(cells=2)
    with FarmCoordinator(config, 1) as coordinator:
        with pytest.raises(ConfigurationError, match="workload"):
            coordinator.run(slot_interval_s=0.0)


def test_scenario_must_cover_fleet_cells():
    config = make_config(cells=2)
    foreign = WorkloadScenario(
        scenario="steady",
        cells=("elsewhere0", "elsewhere1"),
        slots=2,
        subcarriers=2,
        seed=3,
    )
    with FarmCoordinator(config, 1) as coordinator:
        with pytest.raises(ConfigurationError, match="cells"):
            coordinator.install_workload(foreign, NOISE_VAR)


# -- conservation across accounting planes ------------------------------
#
# One ledger, three renderings: the fleet summary (this run's fold of
# chunk ledgers), the per-cell stats (the coordinator's lifetime ledger)
# and — with a hub — the exposed Prometheus counters.  They are views of
# merge_dict folds of the same chunk payloads, so they agree whether a
# worker was killed mid-run (the re-spawned worker's totals restart at
# zero; the coordinator's do not) or the run was calibrated first
# (calibration passes are schedulers of their own, not in any chunk).

RUN_KINDS = {
    "clean": ({}, {"slot_interval_s": 0.0}),
    "killed": ({"kill_script": {0: 1}}, {"slot_interval_s": 0.0}),
    "calibrated": ({}, {"overload": 3.0}),
}


@pytest.mark.parametrize("with_hub", [False, True], ids=["no-hub", "hub"])
@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
def test_every_plane_counts_the_same_frames(kind, with_hub):
    coordinator_kwargs, run_kwargs = RUN_KINDS[kind]
    config = make_config()
    scenario = make_scenario(config, slots=8)
    obs = Observability() if with_hub else None
    with FarmCoordinator(
        config, 2, slots_per_chunk=2, obs=obs, **coordinator_kwargs
    ) as coordinator:
        report = coordinator.run(scenario, NOISE_VAR, **run_kwargs)
    assert len(report.restarts) == (kind == "killed")
    assert report.frames_offered == scenario.offered_frames() == 448
    assert report.scheduler["frames_missing"] == 0
    assert (
        report.scheduler["frames_detected"]
        == sum(cell["frames"] for cell in report.cells.values())
        == sum(worker["frames_detected"] for worker in report.per_worker)
        == report.frames_offered
    )
    # 4 chunks x 2 workers: a chunk that died with its worker never
    # replied, its replay is counted once.
    assert report.scheduler["summaries_merged"] == 8
    if with_hub:
        assert coordinator.metrics is obs.metrics
        exposed = [
            float(line.rsplit(" ", 1)[1])
            for line in obs.prometheus_text().splitlines()
            if line.startswith("repro_frames_detected_total{cell=")
        ]
        assert len(exposed) == 4 and sum(exposed) == report.frames_offered


@pytest.mark.parametrize("kill_script", [{}, {1: 1}], ids=["clean", "restart"])
def test_cells_are_running_totals_across_runs(kill_script):
    config = make_config()
    scenario = make_scenario(config, slots=4)
    per_cell = scenario.offered_frames() // 4
    with FarmCoordinator(
        config, 2, slots_per_chunk=2, kill_script=kill_script
    ) as coordinator:
        first = coordinator.run(scenario, NOISE_VAR, slot_interval_s=0.0)
        coordinator.kill_script = dict(kill_script)
        second = coordinator.run(slot_interval_s=0.0)
    assert len(second.restarts) == 2 * len(kill_script)
    for cell in config.farm.cell_ids():
        assert first.cells[cell]["frames"] == per_cell
        assert second.cells[cell]["frames"] == 2 * per_cell
    # The per-run planes do not accumulate.
    assert second.frames_detected == first.frames_detected == 4 * per_cell


def test_exposed_hit_rate_is_derived_from_the_folded_counters():
    """An overloaded two-worker run: a stored gauge would fold
    last-writer-wins (the last chunk's lane); the exposed rate is
    computed from the dump's own counters, so it is the fleet's."""
    config = make_config()
    scenario = make_scenario(config, slots=12)
    obs = Observability()
    with FarmCoordinator(config, 2, slots_per_chunk=2, obs=obs) as coordinator:
        # Far below the slot cost: most flushes complete late.
        report = coordinator.run(scenario, NOISE_VAR, slot_interval_s=2e-4)
    detected = obs.metrics.total("repro_frames_detected_total")
    late = obs.metrics.total("repro_frames_late_total")
    assert 0 < late == report.scheduler["frames_late"] <= detected
    exposed = [
        line
        for line in obs.prometheus_text().splitlines()
        if line.startswith("repro_deadline_hit_rate ")
    ]
    assert len(exposed) == 1
    rate = float(exposed[0].split()[1])
    assert rate == pytest.approx(1 - late / detected)
    assert rate == report.scheduler["deadline_hit_rate"] == report.hit_rate
    assert "repro_deadline_hit_rate" not in str(obs.metrics.to_dict())


@pytest.mark.skipif(
    native.status()["lane"] != "native"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fused lane and the fork start method",
)
def test_forked_workers_start_their_own_pe_pool(monkeypatch):
    """A worker forked after this process's PE pool started inherits the
    executor but none of its threads: unless it starts its own, its
    first fanned-out walk waits forever."""
    # Two PEs and no floor, here and — forked — in every worker.
    monkeypatch.setattr(native, "pes", lambda: 2)
    monkeypatch.setattr(native, "RUN_FLOPS", 1)
    system = MimoSystem(12, 12, QamConstellation(64))
    detector = FlexCoreDetector(system, 128)
    channels, received, noise_var = make_block(system, 64, 7, 22.0, 2017)
    detector.detect_block_prepared(detector.prepare_many(channels, noise_var), received)
    assert native._POOL is not None
    config = replace(make_config(cells=2), backend=BackendSpec("array"))
    with FarmCoordinator(
        config, 2, start_method="fork", reply_timeout_s=30.0, max_restarts=0
    ) as coordinator:
        report = coordinator.run(make_scenario(config), NOISE_VAR, slot_interval_s=0.0)
    assert not report.restarts and report.scheduler["frames_missing"] == 0
    assert report.frames_detected == report.frames_offered
