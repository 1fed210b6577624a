"""SNR calibration: find the operating point where PER hits a target.

The paper's Fig. 9/10 operating points are "the SNR such that an ML
decoder reaches PER 0.1 / 0.01" (§5.1).  PER is monotone decreasing in
SNR, so a bisection on the simulated link converges quickly; shared seeds
across probes act as common random numbers and stabilise the search.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.detectors.base import Detector
from repro.errors import LinkSimulationError
from repro.link.config import LinkConfig
from repro.link.simulation import simulate_link


@dataclass
class CalibrationResult:
    """Outcome of an SNR search."""

    snr_db: float
    per: float
    iterations: int
    history: list


def find_snr_for_per(
    config: LinkConfig,
    detector: Detector,
    target_per: float,
    channel_sampler_factory,
    num_packets: int = 100,
    snr_low_db: float = 0.0,
    snr_high_db: float = 40.0,
    tolerance_db: float = 0.25,
    seed: int = 1234,
    engine=None,
) -> CalibrationResult:
    """Bisection search for the SNR achieving ``target_per``.

    ``channel_sampler_factory`` is a zero-argument callable returning a
    channel sampler, called once per probe; every probe replays the
    same channels under the same seed (a factory may hand back one
    stateless sampler, e.g. a testbed trace drawn once).

    ``engine`` optionally supplies a pre-built
    :class:`~repro.api.UplinkStack` wrapping ``detector``; one stack
    then serves every probe of the bisection, so its context cache
    persists across the search (contexts are keyed on noise variance,
    so distinct SNR probes coexist in the cache).
    """
    if not 0.0 < target_per < 1.0:
        raise LinkSimulationError("target PER must lie in (0, 1)")

    def probe(snr_db: float) -> float:
        sampler = channel_sampler_factory()
        result = simulate_link(
            config,
            detector,
            snr_db,
            num_packets,
            sampler,
            rng=seed,
            engine=engine,
        )
        return result.per

    history = []
    per_low = probe(snr_low_db)
    per_high = probe(snr_high_db)
    history.extend([(snr_low_db, per_low), (snr_high_db, per_high)])
    if per_low < target_per:
        return CalibrationResult(snr_low_db, per_low, 2, history)
    if per_high > target_per:
        return CalibrationResult(snr_high_db, per_high, 2, history)

    low, high = snr_low_db, snr_high_db
    iterations = 2
    per_mid = per_high
    while high - low > tolerance_db:
        mid = 0.5 * (low + high)
        per_mid = probe(mid)
        history.append((mid, per_mid))
        iterations += 1
        if per_mid > target_per:
            low = mid
        else:
            high = mid
    final = 0.5 * (low + high)
    return CalibrationResult(final, per_mid, iterations, history)
