"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=[4, 16, 64], ids=["qpsk", "16qam", "64qam"])
def constellation(request):
    return QamConstellation(request.param)


@pytest.fixture
def qam16():
    return QamConstellation(16)


@pytest.fixture
def small_system(qam16):
    """A 3x3 16-QAM system small enough for exhaustive ML."""
    return MimoSystem(3, 3, qam16)


@pytest.fixture
def mid_system(qam16):
    return MimoSystem(8, 8, qam16)


def random_link(system, snr_db, num_vectors, rng):
    """Helper: (channel, tx indices, received) triple for detector tests."""
    from repro.channel.fading import rayleigh_channel
    from repro.mimo.model import apply_channel, noise_variance_for_snr_db
    from repro.modulation.mapper import random_symbol_indices

    channel = rayleigh_channel(
        system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    indices = random_symbol_indices(
        num_vectors, system.num_streams, system.constellation, rng
    )
    received = apply_channel(
        channel, system.constellation.points[indices], noise_var, rng
    )
    return channel, indices, received, noise_var


def make_block(system, subcarriers, frames, snr_db, seed):
    """``(S, Nr, Nt)`` Rayleigh channels and ``(S, F, Nr)`` noisy
    received symbols."""
    from repro.channel.fading import rayleigh_channels
    from repro.mimo.model import noise_variance_for_snr_db

    rng = np.random.default_rng(seed)
    channels = rayleigh_channels(
        subcarriers, system.num_rx_antennas, system.num_streams, rng
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    sent = system.constellation.points[
        rng.integers(
            0, system.constellation.order, (subcarriers, frames, system.num_streams)
        )
    ]
    shape = (subcarriers, frames, system.num_rx_antennas)
    noise = np.sqrt(noise_var / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    return channels, np.einsum("srt,sft->sfr", channels, sent) + noise, noise_var


def make_stack(
    detector, backend="serial", cells=None, cache=True, governor=None, **scheduler
):
    """``build_stack(StackConfig(...), detector=detector)`` from
    test-sized arguments.

    ``backend`` is a registry name or a ``BackendSpec``; ``cells=None``
    is a batch stack, an integer a streaming farm of that many cells;
    ``governor`` is a ``GovernorSpec``; remaining keywords are
    ``SchedulerSpec`` fields.
    """
    from repro.api import (
        BackendSpec,
        CacheSpec,
        FarmSpec,
        SchedulerSpec,
        StackConfig,
        build_stack,
    )

    if not isinstance(backend, BackendSpec):
        backend = BackendSpec(backend)
    config = StackConfig(
        backend=backend,
        cache=CacheSpec(enabled=cache),
        farm=FarmSpec(
            streaming=cells is not None, cells=1 if cells is None else cells
        ),
        scheduler=SchedulerSpec(**scheduler),
        governor=governor,
    )
    return build_stack(config, detector=detector)


@pytest.fixture(params=["portable", "native"])
def lane(request):
    """Run a test on each lane of the walk: ``portable`` forces the
    numpy level loop (what ``CC=false`` does to a whole process),
    ``native`` is the compiled tile kernel and skips only where
    ``repro.native.status()`` reports no compiler."""
    from unittest import mock

    from repro import native

    status = native.status()
    if request.param == "native":
        if status["lane"] != "native":
            pytest.skip(f"no native lane here: {status['reason']}")
        yield "native"
        return
    forced = ({**status, "lane": "portable", "reason": "forced by a test"}, None)
    with mock.patch.object(native, "_RESOLVED", forced):
        yield "portable"


def assert_same_distances(got, expected, weights, ulps=64):
    """Two lanes' PEDs ``(G, F, P)``: deactivated (infinite) in the same
    places and within ``ulps`` elsewhere — units in the last place of the
    distance, or of one half-grid step at every level (``weights`` is the
    plan's ``(G, Nt)``) where the distance is smaller than that.  The
    lanes differ by the summation order of the interference product."""
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(got), finite)
    floor = np.broadcast_to(weights.sum(axis=1)[:, None, None], expected.shape)
    scale = np.maximum(np.abs(expected), floor)[finite]
    assert (np.abs(got[finite] - expected[finite]) <= ulps * np.spacing(scale)).all()
