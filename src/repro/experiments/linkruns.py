"""Shared link-simulation plumbing for the throughput experiments.

A link experiment learns its runtime from one
:class:`~repro.api.StackConfig` (``stack_config``, default
:data:`LINK_STACK_CONFIG`): every stack it opens — each link run, the ML
calibration bisection, the SNR-loss probes — is that config's runtime
half (:func:`runtime_stack_config`) built around the detector under test
by :func:`~repro.api.build_stack` and closed by a ``with``.  The saved
result embeds the same runtime half, so its ``config`` block is the one
every stack of the run was built from.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import CacheSpec, StackConfig, build_stack
from repro.channel.testbed import IndoorTestbed
from repro.detectors.base import Detector
from repro.detectors.sphere import SphereDecoder
from repro.experiments.common import ExperimentProfile
from repro.flexcore.detector import FlexCoreDetector
from repro.link.calibration import find_snr_for_per
from repro.link.channels import rayleigh_sampler, testbed_sampler
from repro.link.config import LinkConfig
from repro.link.simulation import LinkResult, simulate_link
from repro.mimo.system import MimoSystem


def make_link_config(
    system: MimoSystem, profile: ExperimentProfile
) -> LinkConfig:
    """Profile-sized link configuration for ``system``."""
    return LinkConfig(
        system=system,
        ofdm_symbols_per_packet=profile.ofdm_symbols_per_packet,
        num_subcarriers=profile.subcarriers,
    )


def make_sampler_factory(
    config: LinkConfig,
    profile: ExperimentProfile,
    channel_kind: str = "testbed",
    seed_offset: int = 0,
):
    """Zero-arg factory returning a deterministic sampler: a fresh
    Rayleigh sampler per call (it draws from the run's generator), or
    the one stateless sampler of a testbed trace drawn once, here."""
    if channel_kind == "rayleigh":
        return lambda: rayleigh_sampler(config)
    testbed = IndoorTestbed(config.system.num_rx_antennas, rng=profile.seed + seed_offset)
    sampler = testbed_sampler(config, testbed, num_frames=8)
    return lambda: sampler


def ml_reference_detector(
    system: MimoSystem, profile: ExperimentProfile
) -> Detector:
    """The exact/near-exact ML reference used for SNR calibration.

    The ``full`` profile uses the exact-ML sphere decoder; cheaper
    profiles use a large-path FlexCore proxy, which Fig. 9 shows to be
    within a whisker of ML while running orders of magnitude faster here
    (vectorised).  The substitution is recorded in the experiment notes.
    """
    if profile.use_sphere_for_ml:
        return SphereDecoder(system)
    proxy_paths = min(profile.ml_proxy_paths, system.num_leaves)
    return FlexCoreDetector(system, num_paths=proxy_paths)


#: The link experiments' default runtime: the serial batch stack, its
#: cache sized to hold every (subcarrier, SNR-probe) context an
#: experiment sweep touches for one detector, so testbed traces that
#: cycle their frames across packets hit the cache on every revisit.
LINK_STACK_CONFIG = StackConfig(cache=CacheSpec(max_entries=4096))


def runtime_stack_config(stack_config: StackConfig) -> StackConfig:
    """The runtime half of ``stack_config``, which every link run shares.

    Its detector spec is stripped — throughput experiments sweep their
    own detectors, so the embedded config describes the runtime stack
    only — and its governor detached: a PER/throughput measurement must
    run every swept detector at its labelled path count with no
    admission control, or the rows silently stop meaning what they say
    (the ``farm`` experiment is where governed behaviour is measured).
    """
    return replace(stack_config, detector=None, governor=None)


def calibrate_ml_snr(
    system: MimoSystem,
    target_per: float,
    profile: ExperimentProfile,
    stack_config: StackConfig,
    channel_kind: str = "testbed",
) -> float:
    """SNR (dB) at which the ML reference hits ``target_per``; one
    ``stack_config`` stack serves every probe of the bisection."""
    config = make_link_config(system, profile)
    detector = ml_reference_detector(system, profile)
    factory = make_sampler_factory(config, profile, channel_kind)
    with build_stack(stack_config, detector=detector) as engine:
        result = find_snr_for_per(
            config,
            detector,
            target_per,
            factory,
            num_packets=profile.calibration_packets,
            seed=profile.seed,
            engine=engine,
        )
    return result.snr_db


def run_point(
    config: LinkConfig,
    detector: Detector,
    snr_db: float,
    profile: ExperimentProfile,
    sampler_factory,
    stack_config: StackConfig,
    seed_offset: int = 0,
) -> LinkResult:
    """One PER/throughput measurement with common random numbers, on a
    ``stack_config`` stack that keeps prepared contexts hot across the
    packets of the run (the trace sampler cycles frames)."""
    return simulate_link(
        config,
        detector,
        snr_db,
        profile.packets_per_point,
        sampler_factory(),
        rng=profile.seed + seed_offset,
        stack_config=stack_config,
    )


def flexcore_pe_sweep(max_paths: int, profile: ExperimentProfile) -> list[int]:
    """The processing-element counts Fig. 9's x-axis sweeps."""
    if profile.name.startswith("quick"):
        sweep = [1, 4, 16, 64, 196]
    else:
        sweep = [1, 2, 4, 8, 16, 32, 64, 128, 196]
    return [count for count in sweep if count <= max_paths]
