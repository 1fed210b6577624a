"""Benches for the soft-output extension: the soft FlexCore kernels and
the soft-gain experiment."""

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channels
from repro.experiments import soft_gain
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import noise_variance_for_snr_db
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
