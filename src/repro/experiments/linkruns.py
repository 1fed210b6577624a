"""Shared link-simulation plumbing for the throughput experiments."""

from __future__ import annotations

from dataclasses import replace

from repro.api import (
    BackendSpec,
    CacheSpec,
    FarmSpec,
    StackConfig,
    UplinkStack,
    build_stack,
)
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
    """Zero-arg factory returning a fresh (but deterministic) sampler."""
    seed = profile.seed + seed_offset

    def factory():
        if channel_kind == "rayleigh":
            return rayleigh_sampler(config)
        testbed = IndoorTestbed(
            num_rx=config.system.num_rx_antennas, rng=seed
        )
        return testbed_sampler(config, testbed, num_frames=8)

    return factory


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


def runtime_stack_config(
    stack_config: "StackConfig | None" = None,
    backend: str = "serial",
    streaming: bool = False,
    cells: int = 1,
    max_cache_entries: int = 4096,
) -> StackConfig:
    """The effective runtime :class:`~repro.api.StackConfig` of one run.

    An explicit ``stack_config`` (e.g. from the runner's ``--config`` /
    ``--preset``) is authoritative and returned with its detector spec
    stripped — throughput experiments sweep their own detectors, so the
    embedded config describes the runtime stack only — and its governor
    detached: a PER/throughput measurement must run every swept
    detector at its labelled path count with no admission control, or
    the rows silently stop meaning what they say (the ``farm``
    experiment is where governed behaviour is measured).  Otherwise one
    is assembled from the legacy flag set; the cache is sized to hold
    every (subcarrier, SNR-probe) context an experiment sweep touches
    for one detector, so testbed traces that cycle their frames across
    packets hit the cache on every revisit.
    """
    if stack_config is not None:
        return replace(stack_config, detector=None, governor=None)
    return StackConfig(
        backend=BackendSpec(backend),
        cache=CacheSpec(max_entries=max_cache_entries),
        farm=FarmSpec(streaming=streaming or cells > 1, cells=cells),
    )


def make_stack(detector: Detector, config: StackConfig) -> UplinkStack:
    """One experiment detector on the configured runtime stack.

    ``streaming`` configs route every batch through the slot-deadline
    scheduler sharded across the farm's cells instead of straight into
    the detection service; results are bit-identical, only the
    execution path changes.
    """
    return build_stack(config, detector=detector)


def calibrate_ml_snr(
    system: MimoSystem,
    target_per: float,
    profile: ExperimentProfile,
    channel_kind: str = "testbed",
    backend: str = "serial",
) -> float:
    """SNR (dB) at which the ML reference hits ``target_per``."""
    config = make_link_config(system, profile)
    detector = ml_reference_detector(system, profile)
    factory = make_sampler_factory(config, profile, channel_kind)
    with make_stack(
        detector, runtime_stack_config(backend=backend)
    ) as engine:
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
    seed_offset: int = 0,
    engine: UplinkStack | None = None,
) -> LinkResult:
    """One PER/throughput measurement with common random numbers."""
    if engine is None:
        engine = make_stack(detector, runtime_stack_config())
    return simulate_link(
        config,
        detector,
        snr_db,
        profile.packets_per_point,
        sampler_factory(),
        rng=profile.seed + seed_offset,
        engine=engine,
    )


def flexcore_pe_sweep(max_paths: int, profile: ExperimentProfile) -> list[int]:
    """The processing-element counts Fig. 9's x-axis sweeps."""
    if profile.name.startswith("quick"):
        sweep = [1, 4, 16, 64, 196]
    else:
        sweep = [1, 2, 4, 8, 16, 32, 64, 128, 196]
    return [count for count in sweep if count <= max_paths]
