"""Native-async scheduler tests, active when pytest-asyncio is installed.

The tier-1 lane runs the scheduler through ``asyncio.run`` wrappers (see
``test_scheduler.py``) so no plugin is required; this module exercises
the same surface as *native* coroutine tests — cancellation while the
loop owns the futures, concurrent producers on one scheduler — which
need a running-loop test harness.  The CI optional-deps job pins
``pytest-asyncio`` and runs these; locally they skip cleanly when the
plugin is absent.
"""

import asyncio
import math

import numpy as np
import pytest

pytest_asyncio = pytest.importorskip("pytest_asyncio")

from repro.channel.fading import rayleigh_channels  # noqa: E402
from repro.flexcore.detector import FlexCoreDetector  # noqa: E402
from repro.mimo.system import MimoSystem  # noqa: E402
from repro.modulation.constellation import QamConstellation  # noqa: E402
from repro.runtime import (  # noqa: E402
    CellFarm,
    FrameArrival,
    StreamingScheduler,
)
from tests.conftest import make_stack, one_cell_farm

pytestmark = pytest.mark.asyncio


@pytest.fixture
def detector():
    return FlexCoreDetector(
        MimoSystem(3, 3, QamConstellation(16)), num_paths=8
    )


async def test_concurrent_producers_share_one_scheduler(detector, rng):
    """Many producer tasks submitting concurrently stay bit-exact."""
    channels = rayleigh_channels(4, 3, 3, rng)
    received = rng.standard_normal((4, 3, 3)) + 0j
    noise_var = 0.05
    reference = make_stack(detector).detect_batch(
        channels, received, noise_var
    )
    farm = CellFarm()
    farm.add_cell("cell0", detector)

    async with farm.scheduler(
        batch_target=3, slot_budget_s=math.inf
    ) as scheduler:

        async def producer(sc):
            futures = [
                await scheduler.submit(
                    FrameArrival(channels[sc], received[sc, f], noise_var)
                )
                for f in range(3)
            ]
            return np.concatenate(
                [(await future).indices for future in futures]
            )

        results = await asyncio.gather(*(producer(sc) for sc in range(4)))
    for sc, indices in enumerate(results):
        assert np.array_equal(indices, reference.indices[sc])


async def test_cancelled_future_does_not_wedge_the_loop(detector, rng):
    """A consumer abandoning its future must not break later flushes."""
    channels = rayleigh_channels(2, 3, 3, rng)
    async with StreamingScheduler(
        one_cell_farm(detector), batch_target=1, slot_budget_s=math.inf
    ) as scheduler:
        doomed = await scheduler.submit(
            FrameArrival(channels[0], np.zeros(3, dtype=complex), 0.1)
        )
        doomed.cancel()
        survivor = await scheduler.submit(
            FrameArrival(channels[1], np.zeros(3, dtype=complex), 0.1)
        )
        detection = await asyncio.wait_for(survivor, timeout=5.0)
    assert detection.indices.shape == (1, 3)
    assert doomed.cancelled()


async def test_flush_resolves_before_control_returns(detector, rng):
    """`flush()` is a barrier: every pending future is done after it."""
    channels = rayleigh_channels(3, 3, 3, rng)
    async with StreamingScheduler(
        one_cell_farm(detector), batch_target=100, slot_budget_s=math.inf
    ) as scheduler:
        futures = [
            await scheduler.submit(
                FrameArrival(channels[sc], np.zeros(3, dtype=complex), 0.1)
            )
            for sc in range(3)
        ]
        await scheduler.flush()
        assert all(future.done() for future in futures)
