"""Tests for the end-to-end link simulator."""

import numpy as np
import pytest

from repro.api import UplinkStack
from repro.channel.testbed import IndoorTestbed
from repro.coding import ConvolutionalCode, ViterbiDecoder
from repro.detectors.linear import MmseDetector, ZfDetector
from repro.errors import LinkSimulationError
from repro.experiments import linkruns
from repro.experiments.common import PROFILES
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.link.channels import rayleigh_sampler, testbed_sampler, trace_sampler
from repro.link.config import LinkConfig
from repro.link.simulation import simulate_link
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from tests.conftest import make_stack


@pytest.fixture(scope="module")
def config():
    system = MimoSystem(4, 4, QamConstellation(16))
    return LinkConfig(
        system=system, ofdm_symbols_per_packet=2, num_subcarriers=8
    )


class TestSimulation:
    def test_high_snr_error_free(self, config):
        detector = FlexCoreDetector(config.system, num_paths=16)
        result = simulate_link(
            config, detector, 45.0, 4, rayleigh_sampler(config), rng=0
        )
        assert result.per == 0.0
        assert result.ber == 0.0
        assert result.vector_error_rate == 0.0

    def test_low_snr_breaks_link(self, config):
        detector = ZfDetector(config.system)
        result = simulate_link(
            config, detector, -10.0, 4, rayleigh_sampler(config), rng=0
        )
        assert result.per > 0.8

    def test_accounting(self, config):
        detector = MmseDetector(config.system)
        result = simulate_link(
            config, detector, 15.0, 3, rayleigh_sampler(config), rng=1
        )
        assert result.packets_simulated == 3
        assert result.user_packets == 12
        assert result.vectors_simulated == 3 * 8 * 2
        assert result.bits_simulated == 12 * config.info_bits_per_packet
        assert 0.0 <= result.per <= 1.0

    @pytest.mark.parametrize("use_soft", [False, True], ids=["hard", "soft"])
    def test_zero_packets_is_an_empty_run(self, config, use_soft):
        detector = SoftFlexCoreDetector(config.system, num_paths=8)
        result = simulate_link(
            config, detector, 10.0, 0, rayleigh_sampler(config), rng=0, use_soft=use_soft
        )
        assert (result.user_packets, result.bit_errors, result.vector_errors) == (0, 0, 0)
        assert result.per == result.ber == result.vector_error_rate == 0.0

    def test_deterministic_given_seed(self, config):
        detector = MmseDetector(config.system)
        a = simulate_link(
            config, detector, 12.0, 3, rayleigh_sampler(config), rng=7
        )
        b = simulate_link(
            config, detector, 12.0, 3, rayleigh_sampler(config), rng=7
        )
        assert a.per == b.per
        assert a.bit_errors == b.bit_errors

    def test_adaptive_metadata_propagates(self, config):
        detector = AdaptiveFlexCoreDetector(config.system, num_paths=16)
        result = simulate_link(
            config, detector, 30.0, 2, rayleigh_sampler(config), rng=2
        )
        assert "average_active_paths" in result.metadata
        assert result.metadata["average_active_paths"] >= 1.0

    def test_streaming_engine_reports_scheduler_telemetry(self, config):
        detector = FlexCoreDetector(config.system, num_paths=8)
        with make_stack(detector, cells=2) as engine:
            result = simulate_link(
                config,
                detector,
                20.0,
                2,
                rayleigh_sampler(config),
                rng=5,
                engine=engine,
            )
        summary = result.metadata["runtime"]["scheduler"]
        assert summary["flushes"] > 0
        assert summary["frames_detected"] == 2 * 8 * 2  # pkts x sc x sym
        assert 0.0 <= summary["deadline_hit_rate"] <= 1.0
        assert summary["max_latency_s"] >= summary["mean_latency_s"] >= 0.0

    def test_batch_engine_has_no_scheduler_telemetry(self, config):
        detector = FlexCoreDetector(config.system, num_paths=8)
        result = simulate_link(
            config, detector, 20.0, 1, rayleigh_sampler(config), rng=5
        )
        assert "scheduler" not in result.metadata["runtime"]

    def test_throughput_computation(self, config):
        detector = MmseDetector(config.system)
        result = simulate_link(
            config, detector, 40.0, 2, rayleigh_sampler(config), rng=3
        )
        expected = 4 * config.user_phy_rate_bps * (1.0 - result.per)
        assert result.network_throughput_bps(config) == pytest.approx(expected)

    def test_bad_channel_sampler_shape(self, config):
        detector = MmseDetector(config.system)

        def bad_sampler(packet, rng):
            return np.zeros((3, 4, 4), dtype=complex)

        with pytest.raises(LinkSimulationError):
            simulate_link(config, detector, 10.0, 1, bad_sampler, rng=0)


def golden_sampler(config, kind):
    if kind == "rayleigh":
        return rayleigh_sampler(config)
    return testbed_sampler(config, IndoorTestbed(num_rx=4, rng=5), num_frames=4)


class TestOneBatchPerRun:
    """The run is drawn packet by packet but detected and decoded once."""

    #: ``(user_packet_errors, bit_errors, vector_errors, contexts_prepared,
    #: context_cache_hits)`` at 8 dB, 6 packets, rng 11, as the per-packet
    #: loop this batch replaced produced them: they pin the RNG draw order.
    GOLDEN = {
        (False, "rayleigh"): (7, 31, 44, 48, 0),
        (False, "testbed"): (3, 23, 47, 32, 16),
        (True, "rayleigh"): (1, 3, 44, 48, 0),
        (True, "testbed"): (1, 11, 47, 32, 16),
    }

    @pytest.mark.parametrize("use_soft, kind", list(GOLDEN), ids=str)
    def test_golden_counts(self, config, use_soft, kind):
        detector_class = SoftFlexCoreDetector if use_soft else FlexCoreDetector
        result = simulate_link(
            config,
            detector_class(config.system, num_paths=8),
            8.0,
            6,
            golden_sampler(config, kind),
            rng=11,
            use_soft=use_soft,
        )
        runtime = result.metadata["runtime"]
        assert (
            result.user_packet_errors,
            result.bit_errors,
            result.vector_errors,
            runtime["contexts_prepared"],
            runtime["context_cache_hits"],
        ) == self.GOLDEN[use_soft, kind]

    @pytest.mark.parametrize("use_soft", [False, True], ids=["hard", "soft"])
    def test_one_detection_and_one_decode_per_run(self, config, monkeypatch, use_soft):
        calls = []

        def spy(owner, name):
            method = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return method(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(UplinkStack, "detect_batch")
        spy(ViterbiDecoder, "decode_soft_batch")
        detector_class = SoftFlexCoreDetector if use_soft else FlexCoreDetector
        simulate_link(
            config,
            detector_class(config.system, num_paths=8),
            12.0,
            5,
            rayleigh_sampler(config),
            rng=3,
            use_soft=use_soft,
        )
        assert sorted(calls) == ["decode_soft_batch", "detect_batch"]

    def test_one_encode_per_run(self, config, monkeypatch):
        """Every (packet, user) stream of a run is encoded in one call."""
        shapes = []
        encode = ConvolutionalCode.encode

        def spy(self, bits, *args, **kwargs):
            shapes.append(np.shape(bits))
            return encode(self, bits, *args, **kwargs)

        monkeypatch.setattr(ConvolutionalCode, "encode", spy)
        simulate_link(
            config, FlexCoreDetector(config.system, num_paths=8), 12.0, 5,
            rayleigh_sampler(config), rng=3,
        )  # fmt: skip
        users = config.system.num_streams
        assert shapes == [(5 * users, config.info_bits_per_packet)]

    def test_testbed_factory_draws_its_trace_once(self, config, monkeypatch):
        built = []

        def counting_testbed(*args, **kwargs):
            built.append(args)
            return IndoorTestbed(*args, **kwargs)

        monkeypatch.setattr(linkruns, "IndoorTestbed", counting_testbed)
        factory = linkruns.make_sampler_factory(config, PROFILES["quick"], "testbed")
        samplers = [factory() for _ in range(3)]
        assert len(built) == 1
        assert all(sampler is samplers[0] for sampler in samplers)


class TestChannelAdapters:
    def test_testbed_sampler_shape(self, config):
        testbed = IndoorTestbed(num_rx=4, rng=5)
        sampler = testbed_sampler(config, testbed, num_frames=2)
        channels = sampler(0, np.random.default_rng(0))
        assert channels.shape == (8, 4, 4)

    def test_trace_sampler_cycles_frames(self, config):
        testbed = IndoorTestbed(num_rx=4, rng=6)
        trace = testbed.generate_uplink_trace(4, num_frames=2, num_subcarriers=8)
        sampler = trace_sampler(config, trace)
        rng = np.random.default_rng(0)
        first = sampler(0, rng)
        again = sampler(2, rng)  # frame index wraps modulo 2
        assert np.allclose(first, again)

    def test_coded_link_beats_uncoded_slicing(self, config):
        """The code must correct residual detection errors at mid SNR."""
        detector = FlexCoreDetector(config.system, num_paths=16)
        result = simulate_link(
            config, detector, 16.0, 6, rayleigh_sampler(config), rng=11
        )
        if result.vector_error_rate > 0:
            # Coded BER must be far below the raw vector error rate.
            assert result.ber < result.vector_error_rate
