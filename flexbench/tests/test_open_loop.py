"""Open-loop fidelity: a stall is charged to the arrivals queued behind
it, because latency runs from each arrival's due time."""

import asyncio
import time

import numpy as np

from flexbench import paced
from flexbench.inputs import detector_spec, error_rates, make_blocks, oracle
from flexbench.spec import PACED
from repro.api import (
    BackendSpec,
    FarmSpec,
    SchedulerSpec,
    StackConfig,
    build_stack,
)
from repro.ofdm.lte import SYMBOLS_PER_SLOT

TINY = {"detector": ("flexcore", 2, 2, 4, {"num_paths": 4})}
INTERVAL_S = 0.010
STALL_S = 0.050
STALLED_FLUSH = 6  # the first flush of the fourth slot


def tiny_farm():
    spec = detector_spec(TINY)
    width = PACED["cells"] * PACED["subcarriers"]
    rng = np.random.default_rng(11)
    (first,), _ = make_blocks(spec.system(), 20.0, width, SYMBOLS_PER_SLOT, 1, rng)
    pool, noise_var = make_blocks(
        spec.system(), 20.0, width, SYMBOLS_PER_SLOT, 4, rng, channels=first.channels
    )
    config = StackConfig(
        detector=spec,
        backend=BackendSpec("array"),
        farm=FarmSpec(streaming=True, cells=PACED["cells"]),
        scheduler=SchedulerSpec(batch_target=SYMBOLS_PER_SLOT),
    )
    answers = oracle(spec, pool, noise_var, use_soft=False)
    return paced.Prepared(
        config=config,
        pool=pool,
        answers=answers,
        noise_var=noise_var,
        cells=config.farm.cell_ids(),
        quality=error_rates(spec.system(), pool, answers),
    )


def test_a_stall_is_charged_to_the_arrivals_queued_behind_it(monkeypatch):
    prepared = tiny_farm()
    with build_stack(prepared.config) as stack:
        asyncio.run(paced.run_drain(stack, prepared, 0.0))  # warm caches
        service = stack.farm.service
        real_detect = service.detect
        calls = {"count": 0}

        def slow_detect(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == STALLED_FLUSH + 1:
                time.sleep(STALL_S)
            return real_detect(*args, **kwargs)

        monkeypatch.setattr(service, "detect", slow_detect)
        phase = asyncio.run(paced.run_phase(stack, prepared, 12, INTERVAL_S))
    assert phase.failed == 0 and phase.detected == phase.attempted
    # Slots 4..7 fell due while the service was stalled: the driver could
    # only submit them late, and each is charged the wait from its *due*
    # time — four slots, not one, pay for the stall.
    charged = [value for value in phase.latency_s if value > 1.5 * INTERVAL_S]
    assert len(charged) >= 4
    assert max(phase.latency_s) >= STALL_S
    assert max(phase.late_s) >= STALL_S - 2 * INTERVAL_S
    # Stamping on submit (what pace_scenario does) would have hidden it:
    # measured from when they actually went in, the same slots look fine.
    hidden = [
        latency - max(0.0, late)
        for latency, late in zip(phase.latency_s, phase.late_s)
    ]
    assert sum(1 for value in hidden if value > 1.5 * INTERVAL_S) <= 2
    assert paced.percentile(phase.late_s, 90) > 0.0


def test_arrivals_are_prestamped_with_their_due_time():
    prepared = tiny_farm()
    bursts = paced.build_arrivals(prepared, 3)
    assert all(a.arrival_s is None for burst in bursts for a in burst)

    class Scheduler:
        def __init__(self):
            self.stamps = []

        async def submit(self, arrival):
            self.stamps.append(arrival.arrival_s)
            future = asyncio.get_running_loop().create_future()
            future.set_result(None)
            return future

        async def flush(self):
            pass

    scheduler = Scheduler()
    _, due, late, _ = asyncio.run(paced.drive(scheduler, bursts, INTERVAL_S))
    assert scheduler.stamps == due
    assert np.allclose(np.diff(sorted(set(due))), INTERVAL_S)
    assert len(late) == 3 and all(value >= 0 for value in late)
