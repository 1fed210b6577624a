"""Benches for the extension features (soft output, adaptive K-best,
lattice reduction, mobility-driven pre-processing duty cycle)."""

import numpy as np
import pytest

from repro.channel.doppler import coherence_frames
from repro.channel.fading import rayleigh_channel, rayleigh_channels
from repro.detectors.kbest_adaptive import AdaptiveKBestDetector
from repro.detectors.lattice import LrAidedZfDetector
from repro.experiments import soft_gain
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.lattice import clll_reduce
from repro.mimo.model import noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.residency import ResidentContextStore


def test_soft_flexcore_kernel(benchmark, system_12x12_64qam, detection_batch):
    channel, received, noise_var = detection_batch
    detector = SoftFlexCoreDetector(system_12x12_64qam, num_paths=64)
    context = detector.prepare(channel, noise_var)
    result = benchmark.pedantic(
        detector.detect_soft_prepared,
        args=(context, received, noise_var),
        rounds=3,
        iterations=1,
    )
    assert result.llrs.shape[1] == 72


@pytest.mark.parametrize(
    "system_fixture,num_paths",
    [("system_8x8_16qam", 32), ("system_12x12_64qam", 128)],
    ids=["8x8-16qam-32", "12x12-64qam-128"],
)
def test_soft_flexcore_block_kernel(benchmark, request, system_fixture, num_paths):
    """One LTE slot (7 symbols) on 64 subcarriers through the stacked
    soft kernel, plan resident: the walk plus the sorted-list LLRs."""
    system = request.getfixturevalue(system_fixture)
    rng = np.random.default_rng(2017)
    channels = rayleigh_channels(
        64, system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(20.0)
    sent = system.constellation.points[
        rng.integers(0, system.constellation.order, (64, 7, system.num_streams))
    ]
    noise = rng.standard_normal((64, 7, system.num_rx_antennas, 2)) @ [1.0, 1.0j]
    received = np.einsum("srt,sft->sfr", channels, sent) + noise * np.sqrt(
        noise_var / 2.0
    )
    detector = SoftFlexCoreDetector(system, num_paths=num_paths)
    contexts = detector.prepare_many(channels, noise_var)
    indices, llrs, _ = benchmark.pedantic(
        detector.detect_soft_block_prepared,
        args=(contexts, received, noise_var),
        kwargs={"store": ResidentContextStore()},
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert indices.shape == (64, 7, system.num_streams)
    assert llrs.shape == (64, 7, system.num_streams * system.constellation.bits_per_symbol)


def test_adaptive_kbest_kernel(benchmark, system_12x12_64qam, detection_batch):
    channel, received, noise_var = detection_batch
    detector = AdaptiveKBestDetector(system_12x12_64qam, coverage=0.99)
    context = detector.prepare(channel, noise_var)
    result = benchmark.pedantic(
        detector.detect_prepared,
        args=(context, received[:48]),
        rounds=2,
        iterations=1,
    )
    assert result.indices.shape == (48, 12)


def test_clll_reduction_12x12(benchmark):
    channel = rayleigh_channel(12, 12, rng=3)
    reduced, transform = benchmark.pedantic(
        clll_reduce, args=(channel,), rounds=3, iterations=1
    )
    assert transform.shape == (12, 12)


def test_lr_zf_kernel(benchmark):
    system = MimoSystem(8, 8, QamConstellation(16))
    rng = np.random.default_rng(0)
    channel = rayleigh_channel(8, 8, rng)
    detector = LrAidedZfDetector(system)
    context = detector.prepare(channel, 0.05)
    received = rng.standard_normal((96, 8)) + 1j * rng.standard_normal((96, 8))
    result = benchmark(detector.detect_prepared, context, received)
    assert result.indices.shape == (96, 8)


def test_mobility_duty_cycle(benchmark):
    """Pre-processing re-run rate across walking-speed Dopplers."""

    def duty_table():
        return [
            coherence_frames(doppler, 1e-3)
            for doppler in (1.0, 5.0, 10.0, 30.0, 100.0)
        ]

    frames = benchmark(duty_table)
    assert frames[0] >= frames[-1]


def test_soft_gain_regeneration(benchmark, tiny_profile):
    result = benchmark.pedantic(
        soft_gain.run,
        kwargs={
            "profile": tiny_profile,
            "num_streams": 4,
            "snrs_db": (10.0,),
        },
        rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 2
