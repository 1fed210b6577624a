"""Tests for the streaming slot-deadline scheduler.

Three concerns:

* **Equivalence** (the acceptance bar): streaming a workload through the
  scheduler — any sharding, any flush interleaving — must bit-match
  the batch ``UplinkStack`` on the same frames, across the serial and
  array backends, hard and soft.
* **Flush policy**: batch-target flushes, deadline flushes, drain
  flushes, and the property that a group's flush decision never lands
  later than its slot deadline plus one event-loop tick.
* **Telemetry**: frame/flush/deadline accounting that the benchmarks
  and the smoke lane assert against.

The asyncio tests run through ``asyncio.run`` inside synchronous test
functions so the tier-1 lane needs no pytest plugin; the native
``pytest-asyncio`` variants live in ``test_scheduler_asyncio.py`` and
activate when the plugin is installed (the CI optional-deps job).
"""

import asyncio
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.channel.fading import rayleigh_channels
from repro.errors import ConfigurationError, LinkSimulationError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.ofdm.lte import SLOT_DURATION_S
from repro.runtime import (
    CellFarm,
    DetectionService,
    FrameArrival,
    MicroBatcher,
    StreamingScheduler,
)
from tests.conftest import make_stack, one_cell_farm

NUM_SUBCARRIERS = 6
NUM_FRAMES = 4


def make_workload(system, seed, snr_db=16.0):
    rng = np.random.default_rng(seed)
    channels = rayleigh_channels(
        NUM_SUBCARRIERS, system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    received = np.empty(
        (NUM_SUBCARRIERS, NUM_FRAMES, system.num_rx_antennas),
        dtype=np.complex128,
    )
    for sc in range(NUM_SUBCARRIERS):
        indices = random_symbol_indices(
            NUM_FRAMES, system.num_streams, system.constellation, rng
        )
        received[sc] = apply_channel(
            channels[sc],
            system.constellation.points[indices],
            noise_var,
            rng,
        )
    return channels, received, noise_var


class TestStreamingEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "array"])
    @pytest.mark.parametrize("cells", [1, 3])
    def test_bit_matches_batch_engine(self, backend, cells):
        """The acceptance bar: scheduler output == batch engine output."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=16)
        channels, received, noise_var = make_workload(system, seed=31)
        reference = make_stack(detector, backend=backend)
        with make_stack(
            detector, backend=backend, cells=cells
        ) as streaming:
            streamed = streaming.detect_batch(channels, received, noise_var)
        batched = reference.detect_batch(channels, received, noise_var)
        assert np.array_equal(streamed.indices, batched.indices)
        assert streamed.stats["streaming"] is True
        assert streamed.stats["cells"] == cells

    def test_per_frame_arrivals_match_burst_arrivals(self):
        """Grouping granularity cannot change the detected symbols."""
        system = MimoSystem(3, 3, QamConstellation(16))
        detector = FlexCoreDetector(system, num_paths=8)
        channels, received, noise_var = make_workload(system, seed=5)
        reference = make_stack(detector).detect_batch(
            channels, received, noise_var
        )

        async def stream_per_frame():
            async with StreamingScheduler(
                one_cell_farm(detector),
                batch_target=NUM_FRAMES,
                slot_budget_s=math.inf,
            ) as scheduler:
                futures = {}
                for sc in range(NUM_SUBCARRIERS):
                    futures[sc] = [
                        await scheduler.submit(
                            FrameArrival(
                                channel=channels[sc],
                                received=received[sc, frame],
                                noise_var=noise_var,
                            )
                        )
                        for frame in range(NUM_FRAMES)
                    ]
                await scheduler.flush()
                return {
                    sc: [await f for f in futs]
                    for sc, futs in futures.items()
                }

        detections = asyncio.run(stream_per_frame())
        for sc in range(NUM_SUBCARRIERS):
            stacked = np.concatenate(
                [d.indices for d in detections[sc]], axis=0
            )
            assert np.array_equal(stacked, reference.indices[sc])

    def test_soft_llrs_match_batch_engine(self):
        system = MimoSystem(3, 3, QamConstellation(16))
        detector = SoftFlexCoreDetector(system, num_paths=12)
        channels, received, noise_var = make_workload(system, seed=9)
        reference = make_stack(detector).detect_batch(
            channels, received, noise_var, use_soft=True
        )
        with make_stack(detector, cells=2) as streaming:
            streamed = streaming.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        assert np.array_equal(streamed.indices, reference.indices)
        assert np.array_equal(streamed.llrs, reference.llrs)

    def test_flops_match_batch_engine(self):
        from repro.utils.flops import FlopCounter

        system = MimoSystem(3, 3, QamConstellation(16))
        channels, received, noise_var = make_workload(system, seed=2)
        detector = FlexCoreDetector(system, num_paths=8)
        batch_counter = FlopCounter()
        make_stack(detector).detect_batch(
            channels, received, noise_var, counter=batch_counter
        )
        stream_counter = FlopCounter()
        with make_stack(detector, cells=2) as streaming:
            streaming.detect_batch(
                channels, received, noise_var, counter=stream_counter
            )
        assert stream_counter.real_mults == batch_counter.real_mults
        assert stream_counter.real_adds == batch_counter.real_adds


class TestFlushPolicy:
    @staticmethod
    def _scheduler_case(batch_target, slot_budget_s, **kwargs):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        rng = np.random.default_rng(11)
        channel = rayleigh_channels(1, 3, 3, rng)[0]
        received = rng.standard_normal((8, 3)) + 0j
        farm = one_cell_farm(detector)
        return farm, channel, received, batch_target, slot_budget_s, kwargs

    def test_batch_target_triggers_flush(self):
        farm, channel, received, *_ = self._scheduler_case(3, math.inf)

        async def run():
            async with StreamingScheduler(
                farm, batch_target=3, slot_budget_s=math.inf
            ) as scheduler:
                futures = [
                    await scheduler.submit(
                        FrameArrival(channel, received[i], 0.1)
                    )
                    for i in range(3)
                ]
                detections = [await f for f in futures]
                return detections, scheduler.telemetry

        detections, telemetry = asyncio.run(run())
        assert all(d.flush.reason == "target" for d in detections)
        assert telemetry.flush_reasons == {"target": 1}
        assert telemetry.frames_detected == 3

    def test_deadline_triggers_flush_for_stragglers(self):
        farm, channel, received, *_ = self._scheduler_case(100, 0.02)

        async def run():
            async with StreamingScheduler(
                farm, batch_target=100, slot_budget_s=0.02
            ) as scheduler:
                future = await scheduler.submit(
                    FrameArrival(channel, received[0], 0.1)
                )
                detection = await asyncio.wait_for(future, timeout=5.0)
                return detection, scheduler.telemetry

        detection, telemetry = asyncio.run(run())
        assert detection.flush.reason == "deadline"
        assert telemetry.flush_reasons == {"deadline": 1}

    def test_stop_drains_pending_groups(self):
        farm, channel, received, *_ = self._scheduler_case(100, math.inf)

        async def run():
            scheduler = StreamingScheduler(
                farm, batch_target=100, slot_budget_s=math.inf
            )
            await scheduler.start()
            future = await scheduler.submit(
                FrameArrival(channel, received[0], 0.1)
            )
            await scheduler.stop()
            return await future

        detection = asyncio.run(run())
        assert detection.flush.reason == "drain"

    def test_flush_initiation_bounded_by_deadline(self):
        """Real-clock bound: flushed_s <= deadline + a generous tick."""
        farm, channel, received, *_ = self._scheduler_case(100, 0.01)

        async def run():
            async with StreamingScheduler(
                farm, batch_target=100, slot_budget_s=0.01
            ) as scheduler:
                futures = [
                    await scheduler.submit(
                        FrameArrival(channel, received[i], 0.1)
                    )
                    for i in range(4)
                ]
                return [await asyncio.wait_for(f, 5.0) for f in futures]

        detections = asyncio.run(run())
        for detection in detections:
            slack = detection.flush.flushed_s - detection.flush.deadline_s
            assert slack <= 0.25, f"flush initiated {slack:.3f}s past deadline"


class TestValidation:
    def test_unknown_cell_rejected(self):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        rng = np.random.default_rng(0)
        channel = rayleigh_channels(1, 3, 3, rng)[0]

        async def run():
            farm = one_cell_farm(detector, cell_id="a")
            async with StreamingScheduler(farm) as scheduler:
                with pytest.raises(ConfigurationError, match="unknown cell"):
                    await scheduler.submit(
                        FrameArrival(
                            channel, np.zeros(3, dtype=complex), 0.1,
                            cell="b",
                        )
                    )

        asyncio.run(run())

    def test_channel_shape_checked_against_cell(self):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)

        async def run():
            async with StreamingScheduler(one_cell_farm(detector)) as scheduler:
                with pytest.raises(ConfigurationError, match="expects"):
                    await scheduler.submit(
                        FrameArrival(
                            np.zeros((4, 4), dtype=complex),
                            np.zeros(4, dtype=complex),
                            0.1,
                        )
                    )

        asyncio.run(run())

    def test_submit_requires_running_scheduler(self):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        scheduler = StreamingScheduler(one_cell_farm(detector))

        async def run():
            with pytest.raises(ConfigurationError, match="not running"):
                await scheduler.submit(
                    FrameArrival(
                        np.zeros((3, 3), dtype=complex),
                        np.zeros(3, dtype=complex),
                        0.1,
                    )
                )

        asyncio.run(run())

    def test_flush_requires_running_scheduler(self):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        scheduler = StreamingScheduler(one_cell_farm(detector))

        async def run():
            with pytest.raises(ConfigurationError, match="not running"):
                await scheduler.flush()

        asyncio.run(run())

    def test_a_farm_without_cells_is_refused(self):
        with pytest.raises(ConfigurationError, match="at least one cell"):
            StreamingScheduler(CellFarm())

    def test_arrival_shape_validation(self):
        with pytest.raises(ConfigurationError):
            FrameArrival(np.zeros(3, dtype=complex), np.zeros(3), 0.1)
        with pytest.raises(ConfigurationError):
            FrameArrival(
                np.zeros((3, 3), dtype=complex), np.zeros((2, 4)), 0.1
            )

    def test_dispatch_errors_propagate_to_futures(self):
        """A failing flush resolves its futures instead of hanging."""
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)  # hard-only
        rng = np.random.default_rng(1)
        channel = rayleigh_channels(1, 3, 3, rng)[0]

        async def run():
            async with StreamingScheduler(
                one_cell_farm(detector), batch_target=1, use_soft=True
            ) as scheduler:
                future = await scheduler.submit(
                    FrameArrival(channel, np.zeros(3, dtype=complex), 0.1)
                )
                with pytest.raises(LinkSimulationError, match="soft"):
                    await asyncio.wait_for(future, timeout=5.0)

        asyncio.run(run())


    def test_non_finite_arrival_fails_its_flush_not_the_scheduler(self):
        """The ``UplinkBatch`` boundary rejects a NaN burst inside the
        flush: its future gets the typed error and the scheduler keeps
        serving."""
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        rng = np.random.default_rng(2)
        good, poisoned = rayleigh_channels(2, 3, 3, rng)
        received = np.full(3, np.nan, dtype=complex)

        async def run():
            async with StreamingScheduler(
                one_cell_farm(detector), batch_target=1
            ) as scheduler:
                bad = await scheduler.submit(
                    FrameArrival(poisoned, received, 0.1)
                )
                with pytest.raises(ConfigurationError, match="received"):
                    await asyncio.wait_for(bad, timeout=5.0)
                fine = await scheduler.submit(
                    FrameArrival(good, np.zeros(3, dtype=complex), 0.1)
                )
                detection = await asyncio.wait_for(fine, timeout=5.0)
                assert detection.indices.shape == (1, 3)
                # One wake: both groups hit the target together and
                # coalesce into one bucket; only the poisoned one fails.
                bad = await scheduler.submit(FrameArrival(poisoned, received, 0.1))
                fine = await scheduler.submit(
                    FrameArrival(good, np.zeros(3, dtype=complex), 0.1)
                )
                with pytest.raises(ConfigurationError, match="received"):
                    await asyncio.wait_for(bad, timeout=5.0)
                detection = await asyncio.wait_for(fine, timeout=5.0)
                assert detection.indices.shape == (1, 3)
                assert detection.flush.subcarriers == 1

        asyncio.run(run())

    def test_non_finite_arrival_fails_alone_in_its_coherence_group(self):
        """A NaN burst and a finite one on the same channel share a
        group: the rejected group is retried arrival by arrival, so only
        the NaN burst's future fails, and every offered frame is
        detected, shed or missing exactly once."""
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        (channel,) = rayleigh_channels(1, 3, 3, np.random.default_rng(3))

        async def run():
            async with StreamingScheduler(
                one_cell_farm(detector), batch_target=2, slot_budget_s=math.inf
            ) as scheduler:
                bad = await scheduler.submit(
                    FrameArrival(channel, np.full(3, np.nan, dtype=complex), 0.1)
                )
                fine = await scheduler.submit(
                    FrameArrival(channel, np.zeros(3, dtype=complex), 0.1)
                )
                with pytest.raises(ConfigurationError, match="received"):
                    await asyncio.wait_for(bad, timeout=5.0)
                detection = await asyncio.wait_for(fine, timeout=5.0)
                assert detection.indices.shape == (1, 3)
                assert detection.flush.frames == 1
            return scheduler.telemetry

        telemetry = asyncio.run(run())
        assert telemetry.frames_submitted == 2
        assert (telemetry.frames_detected, telemetry.frames_missing) == (1, 1)
        assert telemetry.frames_submitted == (
            telemetry.frames_detected + telemetry.frames_shed + telemetry.frames_missing
        )


class TestMicroBatcherProperties:
    CHANNELS = [
        np.full((2, 2), fill + 1, dtype=np.complex128) for fill in range(4)
    ]

    @staticmethod
    def _arrival(key_index, frames, when):
        return FrameArrival(
            channel=TestMicroBatcherProperties.CHANNELS[key_index],
            received=np.zeros((frames, 2), dtype=np.complex128),
            noise_var=0.1,
            arrival_s=when,
        )

    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(
                    min_value=0.0,
                    max_value=2e-3,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=40,
        ),
        batch_target=st.integers(min_value=1, max_value=8),
    )
    @settings(deadline=None, max_examples=200)
    def test_flush_never_exceeds_deadline_plus_tick(
        self, events, batch_target
    ):
        """The scheduler flush contract, driven with simulated time.

        A simulated driver loop (arrivals interleaved with deadline
        wake-ups, exactly the asyncio loop's structure) must flush every
        group no later than its slot deadline plus one tick.
        """
        tick = 1e-4
        budget = SLOT_DURATION_S
        batcher = MicroBatcher(
            batch_target=batch_target, slot_budget_s=budget
        )
        now = 0.0
        wake_s = math.inf
        flushes = []  # (flush_time, group)

        def step(arrivals):
            nonlocal wake_s
            decided = batcher.step(arrivals, now)
            flushes.extend((now, group) for bucket in decided.buckets for group in bucket)
            wake_s = decided.wake_s

        def wake_until(limit):
            nonlocal now
            while math.isfinite(wake_s) and wake_s <= limit:
                now = max(wake_s, now)
                step([])

        for key_index, gap, frames in events:
            arrival_time = now + gap
            wake_until(arrival_time)
            now = arrival_time
            step([(self._arrival(key_index, frames, now), None)])
        wake_until(math.inf)
        assert len(batcher) == 0

        for flush_time, group in flushes:
            assert flush_time <= group.deadline_s + tick, (
                f"group flushed {flush_time - group.deadline_s:.6f}s past "
                f"its deadline (reason={group.reason})"
            )
            if group.reason == "target":
                assert group.frames >= batch_target

    @given(
        frames=st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=20
        )
    )
    @settings(deadline=None)
    def test_pending_frames_accounting(self, frames):
        batcher = MicroBatcher(batch_target=10**9, slot_budget_s=math.inf)
        total = 0
        for count, burst in enumerate(frames):
            batcher.add(
                self._arrival(count % 4, burst, float(count)), None,
                float(count),
            )
            total += burst
            assert batcher.pending_frames == total
        drained = batcher.drain()
        assert sum(group.frames for group in drained) == total
        assert batcher.pending_frames == 0

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(batch_target=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(slot_budget_s=0.0)


class TestMicroBatcherStep:
    """``MicroBatcher.step`` is the scheduler's one decision; these drive
    it on a virtual clock, with no event loop."""

    CELLS = ("a", "b", "c")

    @staticmethod
    def _arrival(cell, key_index, noise_var, frames, when):
        return FrameArrival(
            channel=TestMicroBatcherProperties.CHANNELS[key_index],
            received=np.zeros((frames, 2), dtype=np.complex128),
            noise_var=noise_var,
            cell=cell,
            arrival_s=when,
        )

    @given(
        wakes=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e-3),  # time since last wake
                st.lists(
                    st.tuples(
                        st.sampled_from(CELLS),
                        st.integers(min_value=0, max_value=3),  # channel
                        st.sampled_from([0.1, 0.2]),  # noise
                        st.integers(min_value=1, max_value=3),  # frames
                        st.floats(min_value=0.0, max_value=1e-3),  # queued this long
                    ),
                    max_size=8,
                ),
                st.booleans(),  # a control message: drain
            ),
            min_size=1,
            max_size=25,
        ),
        batch_target=st.integers(min_value=1, max_value=6),
        shed_cells=st.sets(st.sampled_from(CELLS), max_size=1),
    )
    @settings(deadline=None, max_examples=200)
    def test_step_invariants(self, wakes, batch_target, shed_cells):
        batcher = MicroBatcher(batch_target=batch_target, slot_budget_s=SLOT_DURATION_S)

        def admit(cell, frames):
            return cell not in shed_cells

        now, token = 0.0, 0
        admitted, flushed = {}, set()  # token -> frames
        flushing_steps = 0
        for gap, offered, drain in wakes:
            now += gap
            arrivals = []
            for cell, key_index, noise_var, frames, queued in offered:
                arrival = self._arrival(cell, key_index, noise_var, frames, now - queued)
                arrivals.append((arrival, token))
                token += 1
            step = batcher.step(arrivals, now, admit, drain=drain)

            refused = [t for arrival, t in arrivals if arrival.cell in shed_cells]
            assert [t for _, t in step.sheds] == refused
            admitted.update(
                (t, arrival.num_frames) for arrival, t in arrivals if t not in refused
            )
            for bucket in step.buckets:
                kinds = {(g.cell, g.noise_var, g.frames, g.reason) for g in bucket}
                assert len(kinds) == 1, "a bucket mixes cell, noise, frames or reason"
                ((_, _, frames, reason),) = kinds
                if reason == "target":
                    assert frames >= batch_target
                if reason == "deadline":
                    assert all(g.deadline_s <= now for g in bucket)
                for group in bucket:
                    for _, t in group.arrivals:
                        assert t in admitted and t not in flushed
                        flushed.add(t)
            # Every admitted arrival is flushed exactly once or pending.
            assert batcher.pending_frames == sum(
                frames for t, frames in admitted.items() if t not in flushed
            )
            pending = list(batcher._groups.values())
            assert all(g.deadline_s > now for g in pending)
            assert step.wake_s == min((g.deadline_s for g in pending), default=math.inf)
            if drain:
                assert len(batcher) == 0 and step.wake_s == math.inf

            # Fair share: cells in sorted order, rotated one further
            # every step that flushes; a cell's buckets are contiguous.
            served = [bucket[0].cell for bucket in step.buckets]
            order = list(dict.fromkeys(served))
            assert served == sorted(served, key=order.index)
            if order:
                expected = sorted(order)
                offset = flushing_steps % len(expected)
                assert order == expected[offset:] + expected[:offset]
                flushing_steps += 1

    def test_first_cell_served_rotates(self):
        batcher = MicroBatcher(batch_target=1, slot_budget_s=SLOT_DURATION_S)
        firsts = []
        for now in (0.0, 1.0, 2.0):
            arrivals = [(self._arrival(cell, 0, 0.1, 1, now), None) for cell in ("b", "a")]
            step = batcher.step(arrivals, now)
            assert [bucket[0].cell for bucket in step.buckets] in (["a", "b"], ["b", "a"])
            firsts.append(step.buckets[0][0].cell)
        assert firsts == ["a", "b", "a"]

    def test_equal_groups_coalesce_and_expire_on_the_virtual_clock(self):
        batcher = MicroBatcher(batch_target=7, slot_budget_s=SLOT_DURATION_S)
        arrivals = [(self._arrival("a", k, 0.1, 2, 0.0), k) for k in range(3)]
        step = batcher.step(arrivals, 0.0)
        assert step.buckets == [] and step.wake_s == SLOT_DURATION_S
        assert batcher.step([], SLOT_DURATION_S / 2).buckets == []
        step = batcher.step([], SLOT_DURATION_S)
        (bucket,) = step.buckets
        assert [g.reason for g in bucket] == ["deadline"] * 3
        assert step.wake_s == math.inf and len(batcher) == 0


class TestTelemetry:
    def test_counts_and_hit_rate(self):
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        channels, received, noise_var = make_workload(system, seed=4)

        async def run():
            async with StreamingScheduler(
                one_cell_farm(detector),
                batch_target=NUM_FRAMES,
                slot_budget_s=60.0,
            ) as scheduler:
                futures = []
                for sc in range(NUM_SUBCARRIERS):
                    for frame in range(NUM_FRAMES):
                        futures.append(
                            await scheduler.submit(
                                FrameArrival(
                                    channels[sc],
                                    received[sc, frame],
                                    noise_var,
                                )
                            )
                        )
                await scheduler.flush()
                await asyncio.gather(*futures)
                return scheduler.telemetry

        telemetry = asyncio.run(run())
        total = NUM_SUBCARRIERS * NUM_FRAMES
        assert telemetry.frames_submitted == total
        assert telemetry.frames_detected == total
        assert telemetry.groups_flushed == NUM_SUBCARRIERS
        # A 60 s budget on an in-process workload: everything on time.
        assert telemetry.deadline_hit_rate == 1.0
        payload = telemetry.as_dict()
        assert payload["frames_detected"] == total
        assert payload["deadline_hit_rate"] == 1.0
        assert payload["max_latency_s"] > 0.0


class TestBlockingCallTripwire:
    """The session's tripwire (``tests/conftest.py``) on live code: a
    blocking call reached from a flush through another module is
    recorded with its stack.  Every other streaming test is the clean
    case: the autouse fixture fails it on any record."""

    def test_sleep_inside_a_flush_is_recorded(self, monkeypatch, blocking_calls):
        detect = DetectionService.detect

        def sleepy_detect(self, *args, **kwargs):
            time.sleep(0)
            return detect(self, *args, **kwargs)

        monkeypatch.setattr(DetectionService, "detect", sleepy_detect)
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        channels, received, noise_var = make_workload(system, seed=6)
        with make_stack(detector, cells=1) as streaming:
            streaming.detect_batch(channels, received, noise_var)
        assert blocking_calls
        assert {label for label, _ in blocking_calls} == {"time.sleep"}
        for _, stack in blocking_calls:
            assert "in _flush" in stack and "in sleepy_detect" in stack
        blocking_calls.clear()  # provoked on purpose; the fixture would fail it

    @pytest.mark.skipif(native.status()["lane"] != "native", reason="no fused lane")
    def test_sleep_in_a_pooled_run_of_a_flush_is_recorded(self, monkeypatch, blocking_calls):
        """A fused walk fanned out over the PE pool is still the flush's
        detect call: the join is not a blocking call, what a PE thread
        runs for it is on the loop."""
        pool, threads = native.pool, []

        class SleepyPool:
            def submit(self, run, *args):
                def sleepy_run(*args):
                    threads.append(threading.current_thread().name)
                    time.sleep(0)
                    return run(*args)

                return pool().submit(sleepy_run, *args)

        monkeypatch.setattr(native, "pes", lambda: 2)
        monkeypatch.setattr(native, "RUN_FLOPS", 1)
        monkeypatch.setattr(native, "pool", SleepyPool)
        system = MimoSystem(3, 3, QamConstellation(4))
        detector = FlexCoreDetector(system, num_paths=4)
        channels, received, noise_var = make_workload(system, seed=6)
        with make_stack(detector, backend="array", cells=1) as streaming:
            streaming.detect_batch(channels, received, noise_var)
        assert threads and all(name.startswith("flexcore-pe") for name in threads)
        assert [label for label, _ in blocking_calls] == ["time.sleep"] * len(threads)
        for _, stack in blocking_calls:
            assert "in sleepy_run" in stack and "in _flush" not in stack
        blocking_calls.clear()  # provoked on purpose; the fixture would fail it
