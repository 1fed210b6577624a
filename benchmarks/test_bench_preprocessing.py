"""Pre-processing benches: the §3.1.1 "low overhead" claim.

Times the promising-path tree search against the QR decomposition it
piggybacks on, across PE counts and batch-expansion sizes — the
single-channel heap search, and the 64-channel lockstep block search
that production's cold path (``prepare_many``) actually calls.
"""

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channel, rayleigh_channels
from repro.flexcore.preprocessing import find_promising_paths_block
from repro.flexcore.probability import LevelErrorModel
from repro.mimo.qr import sorted_qr, stacked_sorted_qr
from repro.modulation.constellation import QamConstellation
from tests.reference.path_search import find_promising_paths


@pytest.fixture(scope="module")
def model_12():
    channel = rayleigh_channel(12, 12, rng=5)
    qr = sorted_qr(channel)
    return LevelErrorModel.from_channel(
        qr.r, 0.01, QamConstellation(64)
    )


@pytest.mark.parametrize("num_paths", [32, 128, 1024])
def test_tree_search(benchmark, model_12, num_paths):
    result = benchmark(
        find_promising_paths, model_12, num_paths, 64
    )
    assert result.position_vectors.shape[0] == num_paths


@pytest.mark.parametrize("batch", [1, 12])
def test_parallel_expansion(benchmark, model_12, batch):
    result = benchmark(
        find_promising_paths, model_12, 128, 64, None, batch
    )
    assert result.position_vectors.shape[0] == 128


@pytest.mark.parametrize(
    "num_streams, order, num_paths",
    [(8, 16, 64), (12, 64, 128)],
    ids=["8x8-16qam-64paths", "12x12-64qam-128paths"],
)
def test_block_tree_search(benchmark, num_streams, order, num_paths):
    """One cold coherence block: 64 channels searched in lockstep."""
    channels = rayleigh_channels(
        64, num_streams, num_streams, np.random.default_rng(5)
    )
    models = LevelErrorModel.from_channels(
        np.stack([np.diagonal(qr.r) for qr in stacked_sorted_qr(channels)]),
        0.01,
        QamConstellation(order),
    )
    block = benchmark(find_promising_paths_block, models, num_paths, order)
    assert len(block) == 64
    assert all(r.position_vectors.shape[0] == num_paths for r in block)


def test_qr_reference(benchmark):
    """The channel-triggered cost pre-processing is compared against."""
    channel = rayleigh_channel(12, 12, rng=6)
    qr = benchmark(sorted_qr, channel)
    assert qr.r.shape == (12, 12)
