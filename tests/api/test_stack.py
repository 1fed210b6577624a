"""``build_stack`` pinning: the facade is bit-identical to hand wiring.

The api facade must not change a single bit of any result: for every
backend (serial / array), both front-ends (batch /
streaming) and both control modes (governed under a static policy /
ungoverned), ``build_stack(config).detect_batch(...)`` equals the
hand-constructed ``BatchedUplinkEngine`` / ``StreamingUplinkEngine``
output — hard decisions and soft LLRs.  Plus the facade's lifecycle
(idempotent close, context manager) and streaming-only guards.
"""

import numpy as np
import pytest

from repro.api import (
    BackendSpec,
    CacheSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
    build_stack,
)
from repro.channel.fading import rayleigh_channels
from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.runtime import BatchedUplinkEngine, StreamingUplinkEngine

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


class TestBatchEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hard_matches_hand_constructed_engine(self, workload, backend):
        system, channels, received, noise_var = workload
        detector = FlexCoreDetector(system, num_paths=NUM_PATHS)
        with BatchedUplinkEngine(detector, backend=backend) as hand:
            reference = hand.detect_batch(channels, received, noise_var)
        config = StackConfig(
            detector=hard_spec(), backend=BackendSpec(backend)
        )
        with build_stack(config) as stack:
            facade = stack.detect_batch(channels, received, noise_var)
        assert np.array_equal(facade.indices, reference.indices)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_soft_matches_hand_constructed_engine(self, workload, backend):
        system, channels, received, noise_var = workload
        detector = SoftFlexCoreDetector(system, num_paths=NUM_PATHS)
        with BatchedUplinkEngine(detector, backend=backend) as hand:
            reference = hand.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        config = StackConfig(
            detector=soft_spec(), backend=BackendSpec(backend)
        )
        with build_stack(config) as stack:
            assert stack.supports_soft
            facade = stack.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        assert np.array_equal(facade.indices, reference.indices)
        assert np.array_equal(facade.llrs, reference.llrs)

    def test_cache_disabled_config_matches(self, workload):
        system, channels, received, noise_var = workload
        detector = FlexCoreDetector(system, num_paths=NUM_PATHS)
        with BatchedUplinkEngine(detector, cache_contexts=False) as hand:
            reference = hand.detect_batch(channels, received, noise_var)
        config = StackConfig(
            detector=hard_spec(), cache=CacheSpec(enabled=False)
        )
        with build_stack(config) as stack:
            facade = stack.detect_batch(channels, received, noise_var)
            assert facade.stats["cache"].hits == 0
        assert np.array_equal(facade.indices, reference.indices)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hard_matches_hand_constructed_streaming(
        self, workload, backend
    ):
        system, channels, received, noise_var = workload
        detector = FlexCoreDetector(system, num_paths=NUM_PATHS)
        with StreamingUplinkEngine(
            detector, backend=backend, cells=2
        ) as hand:
            reference = hand.detect_batch(channels, received, noise_var)
        config = StackConfig(
            detector=hard_spec(),
            backend=BackendSpec(backend),
            farm=FarmSpec(streaming=True, cells=2),
        )
        with build_stack(config) as stack:
            facade = stack.detect_batch(channels, received, noise_var)
        assert np.array_equal(facade.indices, reference.indices)

    def test_soft_streaming_matches(self, workload):
        system, channels, received, noise_var = workload
        detector = SoftFlexCoreDetector(system, num_paths=NUM_PATHS)
        with StreamingUplinkEngine(detector, cells=2) as hand:
            reference = hand.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        config = StackConfig(
            detector=soft_spec(), farm=FarmSpec(streaming=True, cells=2)
        )
        with build_stack(config) as stack:
            facade = stack.detect_batch(
                channels, received, noise_var, use_soft=True
            )
        assert np.array_equal(facade.indices, reference.indices)
        assert np.array_equal(facade.llrs, reference.llrs)

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


class TestGovernedEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_static_governor_bit_identical_to_ungoverned(
        self, workload, backend
    ):
        """The control plane under StaticPolicy(num_paths) is free."""
        system, channels, received, noise_var = workload
        ungoverned = StackConfig(
            detector=hard_spec(),
            backend=BackendSpec(backend),
            farm=FarmSpec(streaming=True, cells=2),
        )
        with build_stack(ungoverned) as stack:
            reference = stack.detect_batch(channels, received, noise_var)
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
        assert np.array_equal(facade.indices, reference.indices)


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

    def test_cell_prefix_flows_through(self, workload):
        system, channels, received, noise_var = workload
        config = StackConfig(
            detector=hard_spec(),
            farm=FarmSpec(streaming=True, cells=2, cell_prefix="ap"),
        )
        with build_stack(config) as stack:
            assert stack.cell_ids == ("ap0", "ap1")
            assert sorted(stack.farm.cells) == ["ap0", "ap1"]
            stack.detect_batch(channels, received, noise_var)


class TestSchedulerSpecFlowsIntoPacedRuns:
    def test_run_streaming_passes_the_configured_flush_policy(
        self, monkeypatch
    ):
        """run_streaming must hand SchedulerSpec to run_paced — a config
        whose batch_target/margin silently vanished would make the
        embedded metadata lie about the run."""
        import repro.api.stack as stack_module

        captured = {}

        def fake_run_paced(*args, **kwargs):
            captured.update(kwargs)
            return "outcome", "telemetry"

        monkeypatch.setattr(stack_module, "run_paced", fake_run_paced)
        config = StackConfig(
            detector=hard_spec(),
            farm=FarmSpec(streaming=True, cells=1),
            scheduler=SchedulerSpec(
                batch_target=3, slot_budget_s=0.25, flush_margin_s=0.001
            ),
        )
        with build_stack(config) as stack:
            result = stack.run_streaming(
                None, {}, 0.1, slot_interval_s=1.0
            )
        assert result == ("outcome", "telemetry")
        assert captured["batch_target"] == 3
        assert captured["slot_budget_s"] == 0.25
        assert captured["flush_margin_s"] == 0.001

    def test_run_paced_defaults_preserved(self, monkeypatch):
        """A default SchedulerSpec keeps the historical paced protocol:
        burst-sized batches, interval-sized deadline budget."""
        import math

        from repro.control import workload as workload_module

        captured = {}
        original = workload_module.run_paced

        def spy(farm, scenario, cell_channels, system, noise_var,
                slot_interval_s, **kwargs):
            captured.update(kwargs)
            captured["slot_interval_s"] = slot_interval_s
            raise RuntimeError("stop before pacing")

        monkeypatch.setattr(
            "repro.api.stack.run_paced", spy
        )
        config = StackConfig(
            detector=hard_spec(), farm=FarmSpec(streaming=True)
        )
        with build_stack(config) as stack:
            with pytest.raises(RuntimeError, match="stop before"):
                stack.run_streaming(None, {}, 0.1, slot_interval_s=0.5)
        assert captured["batch_target"] is None  # run_paced -> burst size
        assert captured["slot_budget_s"] is None  # run_paced -> interval
        assert original is not spy
        assert math.isfinite(captured["slot_interval_s"])


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
