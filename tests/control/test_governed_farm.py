"""Integration: the control plane attached to the streaming runtime.

The safety property that makes the governor deployable — a static
policy at the detector's own path count is *bit-identical* to the
ungoverned streaming path — plus the budget dial's correctness across
backends and the load-shedding path end to end.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.api import DetectorSpec, GovernorSpec, build_stack, presets
from repro.channel.fading import rayleigh_channels
from repro.control import AimdPolicy, ComputeGovernor
from repro.detectors.linear import MmseDetector
from repro.errors import ConfigurationError, LoadShedError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.probability import LevelErrorModel
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.qr import sorted_qr
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.obs import cell_summaries
from repro.runtime import (
    ContextCache,
    DetectionService,
    FrameArrival,
    StreamingScheduler,
    UplinkBatch,
)
from tests.conftest import make_stack, one_cell_farm
from tests.reference.path_search import find_promising_paths


@pytest.fixture
def system():
    return MimoSystem(4, 4, QamConstellation(16))


def draw_uplink(system, num_sc, num_frames):
    """Seeded ``(channels, received, noise_var, sent indices)`` at 16 dB."""
    rng = np.random.default_rng(42)
    channels = rayleigh_channels(num_sc, 4, 4, rng)
    noise_var = noise_variance_for_snr_db(16.0)
    received = np.empty((num_sc, num_frames, 4), dtype=np.complex128)
    sent = np.empty((num_sc, num_frames, 4), dtype=np.int64)
    for sc in range(num_sc):
        sent[sc] = random_symbol_indices(
            num_frames, 4, system.constellation, rng
        )
        received[sc] = apply_channel(
            channels[sc],
            system.constellation.points[sent[sc]],
            noise_var,
            rng,
        )
    return channels, received, noise_var, sent


@pytest.fixture
def uplink(system):
    return draw_uplink(system, num_sc=6, num_frames=5)[:3]


class TestStaticEquivalence:
    def test_static_policy_is_bit_identical_to_ungoverned(
        self, system, uplink
    ):
        channels, received, noise_var = uplink
        detector = FlexCoreDetector(system, num_paths=16)
        governor = GovernorSpec("static", paths_max=16)
        with make_stack(detector, cells=2) as plain, \
                make_stack(
                    detector, cells=2, governor=governor
                ) as governed:
            reference = plain.detect_batch(channels, received, noise_var)
            result = governed.detect_batch(channels, received, noise_var)
        assert np.array_equal(result.indices, reference.indices)
        assert result.stats["scheduler"]["frames_shed"] == 0

    def test_static_policy_soft_path_bit_identical(self, system, uplink):
        from repro.flexcore.soft import SoftFlexCoreDetector

        channels, received, noise_var = uplink
        detector = SoftFlexCoreDetector(system, num_paths=16)
        governor = GovernorSpec("static", paths_max=16)
        with make_stack(detector, cells=2) as plain, \
                make_stack(
                    detector, cells=2, governor=governor
                ) as governed:
            reference = plain.detect_batch(
                channels, received, noise_var, use_soft=True
            )
            result = governed.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        assert np.array_equal(result.indices, reference.indices)
        assert np.array_equal(result.llrs, reference.llrs)


class TestBudgetDial:
    def test_clamped_budget_equals_smaller_detector(self, system, uplink):
        """Budget B on an N-path context == a num_paths=B detector.

        The pre-processing search is sequential best-first, so its first
        B expansions are the same whether it stops at B or at N > B.
        """
        channels, received, noise_var = uplink
        big = FlexCoreDetector(system, num_paths=32)
        small = FlexCoreDetector(system, num_paths=8)
        service = DetectionService()
        batch = UplinkBatch(
            channels=channels, received=received, noise_var=noise_var
        )
        clamped = service.detect(big, batch, max_paths=8)
        reference = service.detect(small, batch)
        assert np.array_equal(clamped.indices, reference.indices)
        assert clamped.stats["path_budget"] == 8

    def test_floor_budget_accuracy_cost_is_bounded(self, system):
        """Governing trades paths for punctuality; this prices the trade:
        the floor budget (``GovernorSpec().paths_min``) may cost at most
        5 points of uncoded vector-error rate over the full budget, on
        480 seeded vectors (no clock)."""
        channels, received, noise_var, sent = draw_uplink(
            system, num_sc=16, num_frames=30
        )
        detector = FlexCoreDetector(system, num_paths=32)
        service = DetectionService()
        batch = UplinkBatch(
            channels=channels, received=received, noise_var=noise_var
        )

        def vector_error_rate(max_paths):
            result = service.detect(detector, batch, max_paths=max_paths)
            return float((result.indices != sent).any(axis=2).mean())

        penalty = vector_error_rate(GovernorSpec().paths_min) - (
            vector_error_rate(None)
        )
        assert penalty <= 0.05

    @pytest.mark.parametrize("backend", ["serial", "array"])
    def test_budget_consistent_across_backends(
        self, system, uplink, backend
    ):
        channels, received, noise_var = uplink
        detector = FlexCoreDetector(system, num_paths=32)
        serial = DetectionService("serial")
        other = DetectionService(backend)
        batch = UplinkBatch(
            channels=channels, received=received, noise_var=noise_var
        )
        expected = serial.detect(
            detector, batch, cache=ContextCache(), max_paths=4
        )
        result = other.detect(
            detector, batch, cache=ContextCache(), max_paths=4
        )
        assert np.array_equal(result.indices, expected.indices)
        other.close()
        serial.close()

    def test_cached_context_is_not_mutated_by_clamp(self, system, uplink):
        channels, received, noise_var = uplink
        detector = FlexCoreDetector(system, num_paths=16)
        service = DetectionService()
        cache = ContextCache()
        batch = UplinkBatch(
            channels=channels, received=received, noise_var=noise_var
        )
        service.detect(detector, batch, cache=cache, max_paths=2)
        # A later uncapped call through the same cache must run at the
        # full prepared width again.
        full = service.detect(detector, batch, cache=cache)
        reference = service.detect(detector, batch, cache=None)
        assert np.array_equal(full.indices, reference.indices)
        assert full.per_subcarrier_metadata[0]["paths"] == 16

    def test_budgetless_detector_passes_through(self, system, uplink):
        channels, received, noise_var = uplink
        detector = MmseDetector(system)
        service = DetectionService()
        batch = UplinkBatch(
            channels=channels, received=received, noise_var=noise_var
        )
        capped = service.detect(detector, batch, max_paths=1)
        plain = service.detect(detector, batch)
        assert np.array_equal(capped.indices, plain.indices)

    def test_invalid_budget_rejected(self, system, uplink):
        channels, received, noise_var = uplink
        batch = UplinkBatch(
            channels=channels, received=received, noise_var=noise_var
        )
        with pytest.raises(ConfigurationError, match="max_paths"):
            DetectionService().detect(
                FlexCoreDetector(system, num_paths=4), batch, max_paths=0
            )


class TestLoadShedding:
    def test_shedding_fails_futures_and_counts_frames(self, system):
        """A governor stuck at a floor that cannot meet an impossible
        deadline must shed follow-up arrivals with LoadShedError."""
        rng = np.random.default_rng(3)
        detector = FlexCoreDetector(system, num_paths=4)
        farm = one_cell_farm(detector)
        governor = ComputeGovernor(
            AimdPolicy(4, 4)  # floor == ceiling: no dial left
        )
        channel = rayleigh_channels(1, 4, 4, rng)[0]
        received = rng.standard_normal((7, 4)) + 0j

        async def drive():
            shed = 0
            detected = 0
            async with StreamingScheduler(
                farm,
                batch_target=7,
                slot_budget_s=1e-7,  # every flush is necessarily late
                governor=governor,
            ) as scheduler:
                for _ in range(6):
                    future = await scheduler.submit(
                        FrameArrival(
                            channel=channel,
                            received=received,
                            noise_var=0.05,
                        )
                    )
                    await scheduler.flush()
                    try:
                        await future
                        detected += 1
                    except LoadShedError:
                        shed += 1
                telemetry = scheduler.telemetry
            return shed, detected, telemetry

        shed, detected, telemetry = asyncio.run(drive())
        assert shed > 0
        assert detected > 0  # resume-probe windows let traffic through
        assert telemetry.frames_shed == shed * 7
        cell_view = cell_summaries(telemetry.metrics)["cell0"]
        assert cell_view["frames_shed"] == shed * 7
        assert cell_view["frames"] == detected * 7
        assert governor.telemetry.sheds_started >= 1

    def test_batch_adapter_refuses_partially_shed_batch(
        self, system, uplink
    ):
        """The batch adapter awaits every future, then refuses the
        whole batch with one aggregate LoadShedError — no abandoned
        futures, telemetry intact."""
        channels, received, noise_var = uplink
        detector = FlexCoreDetector(system, num_paths=4)
        governor = GovernorSpec(
            "aimd",
            paths_min=4,  # floor-locked: shedding is the only dial
            paths_max=4,
        )
        with make_stack(
            detector,
            cells=1,
            governor=governor,
            slot_budget_s=1e-7,  # every flush necessarily late
        ) as engine:
            with pytest.raises(LoadShedError, match="shed"):
                engine.detect_batch(channels, received, noise_var)
                engine.detect_batch(channels, received, noise_var)
            assert engine.stats()["scheduler"]["frames_shed"] > 0
            assert engine.governor.telemetry.sheds_started >= 1

    def test_governed_farm_survives_and_reports_summary(
        self, system, uplink
    ):
        channels, received, noise_var = uplink
        detector = FlexCoreDetector(system, num_paths=16)
        governor = GovernorSpec("aimd", paths_min=2, paths_max=16)
        with make_stack(
            detector, cells=2, governor=governor
        ) as engine:
            engine.detect_batch(channels, received, noise_var)
            engine.detect_batch(channels, received, noise_var)
            summary = engine.stats()["scheduler"]
        assert summary["frames_detected"] == 2 * received.shape[0] * (
            received.shape[1]
        )
        assert 0.0 <= summary["deadline_hit_rate"] <= 1.0
        assert summary["flushes"] >= 2


def overload_stack(detector: str, policy: str, **params):
    """The ``farm-overload`` stack (two cells, array backend, 7-frame
    flushes, budgets in ``[2, 128]``) at 4x4 16-QAM, under ``policy``."""
    config = presets.get("farm-overload")
    return build_stack(
        replace(
            config,
            detector=DetectorSpec(detector, 4, 4, 16, params=params),
            governor=replace(config.governor, policy=policy),
        )
    )


def pooled_slots(system, num_slots=8, subcarriers=6, seed=3):
    """Slots at 12 dB whose subcarriers each cell draws from a pool of
    twice as many channels, so flushes mix cache misses with hits: rows
    of earlier blocks, in any order."""
    rng = np.random.default_rng(seed)
    noise_var = noise_variance_for_snr_db(12.0)
    pools = {
        cell: rayleigh_channels(2 * subcarriers, 4, 4, rng)
        for cell in ("cell0", "cell1")
    }
    slots = []
    for _ in range(num_slots):
        arrivals = []
        for cell, pool in pools.items():
            for index in rng.choice(len(pool), subcarriers, replace=False):
                sent = random_symbol_indices(7, 4, system.constellation, rng)
                received = apply_channel(
                    pool[index], system.constellation.points[sent], noise_var, rng
                )
                arrivals.append(
                    FrameArrival(pool[index], received, noise_var, cell=cell)
                )
        slots.append(arrivals)
    return slots


class TestSnrGovernedStream:
    def test_every_tick_is_the_heaps_budget_on_the_last_flush(
        self, system, monkeypatch
    ):
        """On every control tick each cell's budget is what the scalar
        §3.1.1 heap, stopping at ``1 - target``, selects for the first
        channel of that cell's latest flush."""
        last, checked = {}, []
        detect = DetectionService.detect

        def spy_detect(service, detector, batch, **kwargs):
            spy_detect.batch = batch
            return detect(service, detector, batch, **kwargs)

        monkeypatch.setattr(DetectionService, "detect", spy_detect)
        with overload_stack("flexcore", "snr", num_paths=128) as stack:
            governor = stack.governor
            policy = governor.policy
            observe, tick = governor.observe_flush, governor.tick

            def spy_observe(cell_id, record, *args, **kwargs):
                last[cell_id] = spy_detect.batch
                observe(cell_id, record, *args, **kwargs)

            def spy_tick(now):
                tick(now)
                for cell_id, batch in last.items():
                    model = LevelErrorModel.from_channel(
                        sorted_qr(batch.channels[0]).r,
                        batch.noise_var,
                        system.constellation,
                    )
                    heap = find_promising_paths(
                        model,
                        policy.paths_max,
                        system.constellation.order,
                        stop_threshold=1.0 - policy.target_error_rate,
                    )
                    checked.append(
                        (
                            governor.path_budget(cell_id),
                            policy.clamp(heap.expanded_nodes),
                        )
                    )

            monkeypatch.setattr(governor, "observe_flush", spy_observe)
            monkeypatch.setattr(governor, "tick", spy_tick)
            # Paced slots with no deadline: the governor ticks at every
            # pass of the service loop, and no frame is ever late.
            outcome, _ = stack.pace(
                pooled_slots(system), slot_interval_s=0.02, slot_budget_s=math.inf
            )
        assert outcome.frames_detected == outcome.frames_submitted
        assert len(checked) >= 4
        assert [budget for budget, _ in checked] == [
            heap for _, heap in checked
        ]
        assert len({budget for budget, _ in checked}) > 1

    def test_aimd_governed_fcsd_stream_runs(self, system):
        with overload_stack("fcsd", "aimd") as stack:
            outcome, _ = stack.pace(pooled_slots(system, num_slots=3))
            assert stack.governor.telemetry.ticks > 0
        assert outcome.frames_detected == outcome.frames_submitted > 0

    def test_snr_governed_mmse_stream_holds_paths_max(self, system):
        """A detector that runs no path search gives the policy no row:
        every cell holds its initial budget."""
        with overload_stack("mmse", "snr") as stack:
            outcome, _ = stack.pace(pooled_slots(system, num_slots=3))
            governor = stack.governor
            assert governor.telemetry.ticks > 0
            assert governor.budgets() == {"cell0": 128, "cell1": 128}
        assert outcome.frames_detected == outcome.frames_submitted > 0
