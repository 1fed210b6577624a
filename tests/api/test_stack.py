"""``build_stack`` pinning: the facade is bit-identical to hand wiring.

The api facade must not change a single bit of any result: for every
backend (serial / array), both front-ends (batch / streaming) and both
control modes (governed under a static policy / ungoverned),
``build_stack(config).detect_batch(...)`` equals an *independent*
reference built without the facade — ``DetectionService.detect`` with a
hand-held ``ContextCache`` for a batch stack, a hand-built ``CellFarm``
+ ``StreamingScheduler`` for a streaming one — in hard decisions, soft
LLRs, per-subcarrier metadata and cache movement.  Plus the facade's
lifecycle (idempotent close, context manager), streaming-only guards,
the one place a ``SchedulerSpec`` meets a driver's defaults, and the
accounting conservation across every driver.
"""

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
from repro.control import ComputeGovernor, StaticPolicy, WorkloadScenario
from repro.control.workload import slot_arrivals
from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.obs import MetricsRegistry
from repro.ofdm.lte import SYMBOLS_PER_SLOT
from repro.runtime import (
    CellFarm,
    ContextCache,
    DetectionService,
    FrameArrival,
    UplinkBatch,
)

NUM_SUBCARRIERS = 6
NUM_FRAMES = 4
NUM_PATHS = 12
BACKENDS = ["serial", "array"]


@pytest.fixture(scope="module")
def workload():
    """Deterministic 4x4 16-QAM uplink block."""
    system = MimoSystem(4, 4, QamConstellation(16))
    rng = np.random.default_rng(77)
    channels = rayleigh_channels(NUM_SUBCARRIERS, 4, 4, rng)
    noise_var = noise_variance_for_snr_db(16.0)
    received = np.empty(
        (NUM_SUBCARRIERS, NUM_FRAMES, 4), dtype=np.complex128
    )
    for sc in range(NUM_SUBCARRIERS):
        indices = random_symbol_indices(
            NUM_FRAMES, 4, system.constellation, rng
        )
        received[sc] = apply_channel(
            channels[sc],
            system.constellation.points[indices],
            noise_var,
            rng,
        )
    return system, channels, received, noise_var


def hard_spec():
    return DetectorSpec("flexcore", 4, 4, 16, params={"num_paths": NUM_PATHS})


def soft_spec():
    return DetectorSpec(
        "soft-flexcore", 4, 4, 16, params={"num_paths": NUM_PATHS}
    )


def assert_same_block(facade, indices, llrs, metadata):
    assert np.array_equal(facade.indices, indices)
    if llrs is None:
        assert facade.llrs is None
    else:
        assert np.array_equal(facade.llrs, llrs)
    assert facade.per_subcarrier_metadata == metadata


def hand_streamed(
    detector, backend, cells, workload, use_soft=False, governor=None
):
    """The streaming reference: a hand-built ``CellFarm`` and scheduler,
    one arrival per subcarrier sharded round-robin, no facade anywhere.
    Returns ``(detections, {cell_id: CacheStats})``."""
    _, channels, received, noise_var = workload
    cell_ids = [f"cell{index}" for index in range(cells)]

    async def run():
        with CellFarm(backend) as farm:
            for cell_id in cell_ids:
                farm.add_cell(cell_id, detector)
            async with farm.scheduler(
                batch_target=NUM_FRAMES,
                slot_budget_s=math.inf,
                use_soft=use_soft,
                governor=governor,
            ) as scheduler:
                futures = [
                    await scheduler.submit(
                        FrameArrival(
                            channels[sc],
                            received[sc],
                            noise_var,
                            cell=cell_ids[sc % cells],
                        )
                    )
                    for sc in range(NUM_SUBCARRIERS)
                ]
                await scheduler.flush()
                detections = [await future for future in futures]
            return detections, farm.cache_stats()

    return asyncio.run(run())


def assert_same_stream(facade, detections, use_soft=False):
    assert_same_block(
        facade,
        np.stack([d.indices for d in detections]),
        np.stack([d.llrs for d in detections]) if use_soft else None,
        [d.metadata for d in detections],
    )


class TestBatchEquivalence:
    """The batch stack vs ``DetectionService.detect`` + a hand-held
    ``ContextCache``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hard_matches_hand_held_service(self, workload, backend):
        system, channels, received, noise_var = workload
        detector = FlexCoreDetector(system, num_paths=NUM_PATHS)
        batch = UplinkBatch(channels, received, noise_var)
        cache = ContextCache()
        with DetectionService(backend) as service:
            cold = service.detect(detector, batch, cache=cache)
            warm = service.detect(detector, batch, cache=cache)
        config = StackConfig(
            detector=hard_spec(), backend=BackendSpec(backend)
        )
        with build_stack(config) as stack:
            for reference in (cold, warm):
                facade = stack.detect_batch(channels, received, noise_var)
                assert_same_block(
                    facade,
                    reference.indices,
                    None,
                    reference.per_subcarrier_metadata,
                )
                assert facade.stats["cache"] == reference.stats["cache"]
            assert stack.cache_stats == cache.stats

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_soft_matches_hand_held_service(self, workload, backend):
        system, channels, received, noise_var = workload
        detector = SoftFlexCoreDetector(system, num_paths=NUM_PATHS)
        with DetectionService(backend) as service:
            reference = service.detect(
                detector,
                UplinkBatch(channels, received, noise_var),
                cache=ContextCache(),
                use_soft=True,
            )
        config = StackConfig(
            detector=soft_spec(), backend=BackendSpec(backend)
        )
        with build_stack(config) as stack:
            assert stack.supports_soft
            facade = stack.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        assert_same_block(
            facade,
            reference.indices,
            reference.llrs,
            reference.per_subcarrier_metadata,
        )
        assert facade.stats["cache"] == reference.stats["cache"]


class TestStreamingEquivalence:
    """The streaming stack vs a hand-built ``CellFarm`` + scheduler."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hard_matches_hand_built_farm(self, workload, backend):
        system, channels, received, noise_var = workload
        detector = FlexCoreDetector(system, num_paths=NUM_PATHS)
        detections, cache_stats = hand_streamed(
            detector, backend, 2, workload
        )
        config = StackConfig(
            detector=hard_spec(),
            backend=BackendSpec(backend),
            farm=FarmSpec(streaming=True, cells=2),
        )
        with build_stack(config) as stack:
            facade = stack.detect_batch(channels, received, noise_var)
            assert stack.cache_stats == cache_stats
        assert_same_stream(facade, detections)
        assert facade.stats["cache"] == cache_stats

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_soft_streaming_matches(self, workload, backend):
        system, channels, received, noise_var = workload
        detector = SoftFlexCoreDetector(system, num_paths=NUM_PATHS)
        detections, cache_stats = hand_streamed(
            detector, backend, 2, workload, use_soft=True
        )
        config = StackConfig(
            detector=soft_spec(),
            backend=BackendSpec(backend),
            farm=FarmSpec(streaming=True, cells=2),
        )
        with build_stack(config) as stack:
            facade = stack.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        assert_same_stream(facade, detections, use_soft=True)
        assert facade.stats["cache"] == cache_stats

    def test_streaming_matches_batch_stack(self, workload):
        """Streaming and batch stacks agree with each other too."""
        system, channels, received, noise_var = workload
        with build_stack(StackConfig(detector=hard_spec())) as batch:
            reference = batch.detect_batch(channels, received, noise_var)
        config = StackConfig(
            detector=hard_spec(), farm=FarmSpec(streaming=True, cells=3)
        )
        with build_stack(config) as stack:
            facade = stack.detect_batch(channels, received, noise_var)
            assert facade.stats["cells"] == 3
        assert np.array_equal(facade.indices, reference.indices)

    def test_subcarriers_shard_in_numeric_cell_order(self, workload):
        """Subcarrier ``sc`` belongs to ``cell_ids()[sc % cells]`` —
        numeric order, where sorting the ids would put ``cell10``
        before ``cell2`` from 11 cells up."""
        system, channels, received, noise_var = workload
        subcarriers = 14  # 0..10, then cells 0, 1 and 2 again
        config = StackConfig(
            detector=hard_spec(), farm=FarmSpec(streaming=True, cells=11)
        )
        block = (
            np.resize(channels, (subcarriers, 4, 4)),
            np.resize(received, (subcarriers, NUM_FRAMES, 4)),
        )
        with build_stack(config) as stack:
            stack.detect_batch(*block, noise_var)
            frames = {
                cell_id: cell["frames"]
                for cell_id, cell in stack.stats()["cells"].items()
            }
        cell_ids = config.farm.cell_ids()
        assert cell_ids[10] == "cell10"
        expected = dict.fromkeys(cell_ids, 0)
        for sc in range(subcarriers):
            expected[cell_ids[sc % 11]] += NUM_FRAMES
        assert frames == expected
        assert frames["cell2"] == 2 * NUM_FRAMES  # sc 2 and sc 13
        assert frames["cell10"] == NUM_FRAMES


class TestGovernedEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_static_governor_bit_identical_to_ungoverned(
        self, workload, backend
    ):
        """The control plane under StaticPolicy(num_paths) is free —
        against a hand-attached governor and against no governor."""
        system, channels, received, noise_var = workload
        detector = FlexCoreDetector(system, num_paths=NUM_PATHS)
        ungoverned, _ = hand_streamed(detector, backend, 2, workload)
        hand_governed, cache_stats = hand_streamed(
            detector,
            backend,
            2,
            workload,
            governor=ComputeGovernor(StaticPolicy(NUM_PATHS)),
        )
        governed = StackConfig(
            detector=hard_spec(),
            backend=BackendSpec(backend),
            farm=FarmSpec(streaming=True, cells=2),
            governor=GovernorSpec(
                policy="static",
                paths_min=NUM_PATHS,
                paths_max=NUM_PATHS,
            ),
        )
        with build_stack(governed) as stack:
            assert stack.governor is not None
            facade = stack.detect_batch(channels, received, noise_var)
        assert_same_stream(facade, hand_governed)
        assert_same_stream(facade, ungoverned)
        assert facade.stats["cache"] == cache_stats


class TestFacadeSurface:
    def test_requires_some_detector(self):
        with pytest.raises(ConfigurationError, match="no detector"):
            build_stack(StackConfig())

    def test_rejects_non_config(self):
        with pytest.raises(ConfigurationError, match="StackConfig"):
            build_stack({"backend": "serial"})

    def test_rejects_non_detector_override(self):
        with pytest.raises(ConfigurationError, match="Detector"):
            build_stack(StackConfig(), detector="flexcore")

    def test_live_detector_override_wins(self, workload):
        system, channels, received, noise_var = workload
        detector = FlexCoreDetector(system, num_paths=NUM_PATHS)
        config = StackConfig(
            detector=DetectorSpec("mmse", 4)  # would build mmse
        )
        with build_stack(config, detector=detector) as stack:
            assert stack.detector is detector

    def test_batch_stack_guards_streaming_surface(self, workload):
        with build_stack(StackConfig(detector=hard_spec())) as stack:
            with pytest.raises(ConfigurationError, match="streaming"):
                stack.farm
            with pytest.raises(ConfigurationError, match="streaming"):
                stack.run_streaming(None, {}, 0.1)

    def test_close_is_idempotent(self):
        stack = build_stack(StackConfig(detector=hard_spec()))
        stack.close()
        stack.close()  # second close must be a no-op

    def test_context_manager_closes(self, workload):
        system, channels, received, noise_var = workload
        with build_stack(StackConfig(detector=hard_spec())) as stack:
            stack.detect_batch(channels, received, noise_var)
        stack.close()  # already closed by __exit__; still safe

    def test_stats_snapshot_shape(self, workload):
        system, channels, received, noise_var = workload
        config = StackConfig(
            detector=hard_spec(), farm=FarmSpec(streaming=True, cells=2)
        )
        with build_stack(config) as stack:
            stack.detect_batch(channels, received, noise_var)
            stats = stack.stats()
        assert stats["streaming"] is True
        assert StackConfig.from_dict(stats["config"]) == config
        assert set(stats["cells"]) == {"cell0", "cell1"}
        for cell_stats in stats["cells"].values():
            assert {"frames", "cache", "deadline_hit_rate"} <= set(
                cell_stats
            )
        assert stats["scheduler"]["frames_detected"] == (
            NUM_SUBCARRIERS * NUM_FRAMES
        )


def tiny_scenario(cells=("cell0",), slots=2):
    scenario = WorkloadScenario(
        "steady", cells, slots=slots, subcarriers=2, utilization=1.0
    )
    rng = np.random.default_rng(5)
    cell_channels = {
        cell_id: rayleigh_channels(2, 4, 4, rng) for cell_id in cells
    }
    return scenario, cell_channels


class TestSchedulerSpecResolvedOnce:
    """Every driver opens its scheduler through ``UplinkStack.pace``;
    these pin what each hands ``CellFarm.scheduler`` — a config whose
    batch_target silently vanished would make the embedded
    metadata lie about the run."""

    DRIVERS = {
        "detect_batch": lambda stack, block, scenario: stack.detect_batch(
            *block
        ),
        "calibrate": lambda stack, block, scenario: (
            stack.calibrate_slot_cost(*scenario, 0.05)
        ),
        "run_streaming": lambda stack, block, scenario: stack.run_streaming(
            *scenario, 0.05, slot_interval_s=0.5
        ),
        "pace": lambda stack, block, scenario: stack.pace([[]]),
    }

    def _captured(self, monkeypatch, workload, driver, spec, governor=None):
        captured = {}

        def spy(self, **kwargs):
            captured.update(kwargs)
            raise RuntimeError("stop before pacing")

        monkeypatch.setattr(CellFarm, "scheduler", spy)
        _, channels, received, noise_var = workload
        scenario, cell_channels = tiny_scenario()
        config = StackConfig(
            detector=hard_spec(),
            farm=FarmSpec(streaming=True),
            scheduler=spec,
            governor=governor,
        )
        with build_stack(config) as stack:
            with pytest.raises(RuntimeError, match="stop before"):
                self.DRIVERS[driver](
                    stack,
                    (channels, received, noise_var),
                    (scenario, cell_channels),
                )
            return captured, stack.governor

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_configured_flush_policy_reaches_the_scheduler(
        self, monkeypatch, workload, driver
    ):
        spec = SchedulerSpec(batch_target=3, slot_budget_s=0.25)
        captured, _ = self._captured(monkeypatch, workload, driver, spec)
        assert captured["batch_target"] == 3
        # Calibration prices a slot with deadlines off, whatever the spec.
        assert captured["slot_budget_s"] == (
            math.inf if driver == "calibrate" else 0.25
        )

    @pytest.mark.parametrize(
        "driver, batch_target, slot_budget_s",
        [
            # one full batch, offline replay
            ("detect_batch", NUM_FRAMES, math.inf),
            ("calibrate", SYMBOLS_PER_SLOT, math.inf),
            # the historical paced protocol: burst-sized batches,
            # interval-sized deadline budget
            ("run_streaming", SYMBOLS_PER_SLOT, 0.5),
            ("pace", SYMBOLS_PER_SLOT, math.inf),  # back-to-back
        ],
    )
    def test_default_spec_keeps_each_drivers_defaults(
        self, monkeypatch, workload, driver, batch_target, slot_budget_s
    ):
        captured, _ = self._captured(
            monkeypatch, workload, driver, SchedulerSpec()
        )
        assert captured["batch_target"] == batch_target
        assert captured["slot_budget_s"] == slot_budget_s

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_one_governor_reaches_every_scheduler(
        self, monkeypatch, workload, driver
    ):
        captured, governor = self._captured(
            monkeypatch,
            workload,
            driver,
            SchedulerSpec(),
            governor=GovernorSpec("static", paths_max=NUM_PATHS),
        )
        assert governor is not None
        # Calibration runs at the detectors' full budget: ungoverned.
        assert captured["governor"] is (
            None if driver == "calibrate" else governor
        )


class TestAccountingConservation:
    def test_every_flush_reaches_the_scheduler_summary(self, workload):
        """``stats()["cells"]`` and ``stats()["scheduler"]`` count the
        same flushes, whichever driver opened the scheduler."""
        _, channels, received, noise_var = workload
        cells = ("cell0", "cell1")
        scenario, cell_channels = tiny_scenario(cells)
        config = StackConfig(
            detector=hard_spec(), farm=FarmSpec(streaming=True, cells=2)
        )
        with build_stack(config) as stack:
            assert "scheduler" not in stack.stats()
            stack.detect_batch(channels, received, noise_var)
            cost = stack.calibrate_slot_cost(scenario, cell_channels, 0.05)
            outcome, telemetry = stack.run_streaming(
                scenario, cell_channels, 0.05, slot_interval_s=cost
            )
            stats = stack.stats()
        summary = stats["scheduler"]
        offered = scenario.offered_frames()
        assert outcome.frames_detected == telemetry.frames_detected == offered
        # one batch, two calibration passes at peak load, one paced run
        peak = len(cells) * scenario.subcarriers * SYMBOLS_PER_SLOT
        assert summary["frames_detected"] == (
            NUM_SUBCARRIERS * NUM_FRAMES + 2 * peak + offered
        )
        assert summary["frames_detected"] == sum(
            cell["frames"] for cell in stats["cells"].values()
        )
        assert summary["frames_missing"] == 0
        assert summary["summaries_merged"] == 4

    def test_failed_run_keeps_its_accounting(self, workload, monkeypatch):
        """Telemetry is folded on the way out of ``pace``, error or not."""
        _, channels, received, noise_var = workload
        config = StackConfig(
            detector=hard_spec(), farm=FarmSpec(streaming=True)
        )

        def broken(self, *args, **kwargs):
            raise RuntimeError("kernel fault")

        with build_stack(config) as stack:
            monkeypatch.setattr(
                FlexCoreDetector, "detect_prepared", broken
            )
            with pytest.raises(RuntimeError, match="kernel fault"):
                stack.detect_batch(channels, received, noise_var)
            summary = stack.stats()["scheduler"]
        assert summary["frames_submitted"] == NUM_SUBCARRIERS * NUM_FRAMES
        assert summary["frames_detected"] == 0


    @staticmethod
    def _counts(stats: dict) -> dict:
        """``stats()`` minus what differs by design: the config block
        and wall-clock latencies (nothing can be late back-to-back)."""
        scheduler = {
            key: value
            for key, value in stats["scheduler"].items()
            if "latency" not in key
        }
        return {**stats, "config": None, "scheduler": scheduler}

    def test_stats_do_not_depend_on_tracing(self, workload):
        """Tracing stops spans and the exposition, not the counting:
        same key sets, same counts, same ledger series."""
        _, channels, received, noise_var = workload
        scenario, cell_channels = tiny_scenario(("cell0", "cell1"))
        seen = {}
        for traced in (False, True):
            config = StackConfig(
                detector=hard_spec(),
                backend=BackendSpec("array"),
                farm=FarmSpec(streaming=True, cells=2),
                tracing=TracingSpec(enabled=traced),
            )
            rng = np.random.default_rng(9)
            with build_stack(config) as stack:
                stack.detect_batch(channels, received, noise_var)
                stack.pace(
                    slot_arrivals(
                        row, cell_channels, stack.detector.system, 0.05, rng
                    )
                    for row in scenario.demand()
                )
                seen[traced] = stack.stats(), stack.farm.metrics.to_dict()
                assert (stack.obs is not None) == traced
                if traced:
                    assert stack.farm.metrics is stack.obs.metrics
        (plain, plain_ledger), (traced, traced_ledger) = seen[False], seen[True]

        def key_sets(node):
            if not isinstance(node, dict):
                return None
            return {key: key_sets(value) for key, value in node.items()}

        assert key_sets(plain) == key_sets(traced)
        assert self._counts(plain) == self._counts(traced)
        assert plain["scheduler"]["summaries_merged"] == 2
        assert plain["scheduler"]["flush_reasons"].keys() == {"target"}
        assert plain["cache"] == {
            cell: row["cache"] for cell, row in plain["cells"].items()
        }
        assert plain_ledger["counters"] == traced_ledger["counters"]
        assert plain_ledger["gauges"] == traced_ledger["gauges"]

    def test_a_directly_opened_scheduler_reaches_stats(self, workload):
        """``stack.farm.scheduler()`` (no ``pace``) folds into the same
        farm ledger ``stats()`` reads."""
        _, channels, received, noise_var = workload
        config = StackConfig(
            detector=hard_spec(), farm=FarmSpec(streaming=True, cells=2)
        )

        async def drive(stack):
            async with stack.farm.scheduler(
                batch_target=NUM_FRAMES, slot_budget_s=math.inf
            ) as scheduler:
                futures = [
                    await scheduler.submit(
                        FrameArrival(
                            channels[sc], received[sc], noise_var, cell=f"cell{sc % 2}"
                        )
                    )
                    for sc in range(NUM_SUBCARRIERS)
                ]
                await asyncio.gather(*futures)
                # Still running: nothing has reached the farm yet.
                assert "scheduler" not in stack.stats()
                return scheduler.telemetry

        with build_stack(config) as stack:
            telemetry = asyncio.run(drive(stack))
            stats = stack.stats()
        assert stats["scheduler"] == telemetry.as_dict()
        assert stats["scheduler"]["frames_detected"] == NUM_SUBCARRIERS * NUM_FRAMES
        assert sum(c["frames"] for c in stats["cells"].values()) == (
            NUM_SUBCARRIERS * NUM_FRAMES
        )

    @pytest.mark.parametrize("fault", [None, RuntimeError, "loop-killing"])
    def test_one_ledger_per_flush_one_fold_per_run(
        self, workload, monkeypatch, fault
    ):
        """Flushes write the scheduler's own ledger and nothing else;
        that ledger reaches its parent by exactly one ``merge_dict`` —
        after a clean run, after a flush whose kernel raised (futures
        fail, the loop keeps serving) and after a fault that kills the
        loop itself."""
        _, channels, received, noise_var = workload

        class LoopKiller(BaseException):
            pass

        error = LoopKiller if fault == "loop-killing" else fault
        if error is not None:

            def broken(self, *args, **kwargs):
                raise error("kernel fault")

            monkeypatch.setattr(FlexCoreDetector, "detect_prepared", broken)
        folds = []
        merge_dict = MetricsRegistry.merge_dict

        def spy(self, payload):
            folds.append((self, payload))
            return merge_dict(self, payload)

        monkeypatch.setattr(MetricsRegistry, "merge_dict", spy)
        config = StackConfig(
            detector=hard_spec(),
            farm=FarmSpec(streaming=True),
            tracing=TracingSpec(enabled=True),
        )
        ledgers = []
        scheduler_factory = CellFarm.scheduler

        def watched(farm, **kwargs):
            scheduler = scheduler_factory(farm, **kwargs)
            flush = scheduler._flush

            def flush_and_check(cell, bucket):
                try:
                    flush(cell, bucket)
                finally:
                    # Mid-run, right after a flush: only the
                    # scheduler's own ledger has been written.
                    ledgers.append(scheduler.metrics)
                    assert farm.metrics.to_dict()["counters"] == {}
                    assert not folds

            scheduler._flush = flush_and_check
            return scheduler

        monkeypatch.setattr(CellFarm, "scheduler", watched)
        with build_stack(config) as stack:
            if error is None:
                stack.detect_batch(channels, received, noise_var)
            else:
                with pytest.raises(error, match="kernel fault"):
                    stack.detect_batch(channels, received, noise_var)
            summary = stack.stats()["scheduler"]
            assert stack.farm.metrics is stack.obs.metrics
            assert len(folds) == 1
            target, payload = folds[0]
            assert target is stack.farm.metrics
            assert payload == ledgers[0].to_dict() == target.to_dict()
        frames = NUM_SUBCARRIERS * NUM_FRAMES
        assert summary["summaries_merged"] == 1
        assert summary["frames_submitted"] == frames
        assert summary["frames_detected"] == (frames if error is None else 0)
        assert summary["frames_missing"] == (0 if error is None else frames)


class TestSimulateLinkThroughApi:
    def test_default_engine_is_api_built(self):
        """simulate_link with no engine builds its stack via repro.api."""
        from repro.link.channels import rayleigh_sampler
        from repro.link.config import LinkConfig
        from repro.link.simulation import simulate_link

        system = MimoSystem(2, 2, QamConstellation(4))
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=4
        )
        detector = FlexCoreDetector(system, num_paths=4)
        result = simulate_link(
            config,
            detector,
            snr_db=15.0,
            num_packets=2,
            channel_sampler=rayleigh_sampler(config),
            rng=3,
        )
        assert result.metadata["runtime"]["backend"] == "serial"

    def test_stack_config_selects_runtime(self):
        from repro.link.channels import rayleigh_sampler
        from repro.link.config import LinkConfig
        from repro.link.simulation import simulate_link

        system = MimoSystem(2, 2, QamConstellation(4))
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=4
        )
        detector = FlexCoreDetector(system, num_paths=4)
        result = simulate_link(
            config,
            detector,
            snr_db=15.0,
            num_packets=2,
            channel_sampler=rayleigh_sampler(config),
            rng=3,
            stack_config=StackConfig(backend=BackendSpec("array")),
        )
        assert result.metadata["runtime"]["backend"] == "array"

    def test_built_stack_is_closed_after_the_run(self, monkeypatch):
        """A stack simulate_link builds itself must be released —
        array backends pin their resident store otherwise."""
        from repro.api.stack import UplinkStack
        from repro.link.channels import rayleigh_sampler
        from repro.link.config import LinkConfig
        from repro.link.simulation import simulate_link

        closes = []
        original_close = UplinkStack.close

        def counting_close(self):
            closes.append(self)
            original_close(self)

        monkeypatch.setattr(UplinkStack, "close", counting_close)
        system = MimoSystem(2, 2, QamConstellation(4))
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=4
        )
        detector = FlexCoreDetector(system, num_paths=4)
        simulate_link(
            config,
            detector,
            snr_db=15.0,
            num_packets=1,
            channel_sampler=rayleigh_sampler(config),
            rng=3,
        )
        assert len(closes) == 1
