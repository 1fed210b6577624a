"""Fig. 9: network throughput vs available processing elements.

For each (MIMO size, constellation, PER_ML target): calibrate the SNR
where the ML reference hits the target, then measure coded PER /
throughput for

* FlexCore at an arbitrary sweep of PE counts (its headline flexibility),
* FCSD at its only admissible counts ``|Q|**L``,
* the trellis detector [50] at its fixed ``|Q|`` count,
* MMSE (PE-independent), and the ML bound.

The claims this reproduction checks: FlexCore works at *any* PE count and
improves monotonically; it beats FCSD at matched PE counts; it reaches
~95% of ML with far fewer PEs than FCSD; the trellis scheme sits between
MMSE and FCSD.
"""

from __future__ import annotations

from repro.api import StackConfig
from repro.detectors.fcsd import FcsdDetector
from repro.detectors.linear import MmseDetector
from repro.detectors.trellis import TrellisDetector
from repro.experiments.common import ExperimentResult, get_profile
from repro.experiments.linkruns import (
    LINK_STACK_CONFIG,
    calibrate_ml_snr,
    flexcore_pe_sweep,
    make_link_config,
    make_sampler_factory,
    ml_reference_detector,
    run_point,
    runtime_stack_config,
)
from repro.flexcore.detector import FlexCoreDetector
from repro.link.throughput import user_phy_rate_bps
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.obs import MetricsRegistry, scheduler_summary

#: (streams, constellation order) panels of Fig. 9.
DEFAULT_PANELS = ((8, 16), (8, 64), (12, 16), (12, 64))
DEFAULT_TARGETS = (0.1, 0.01)


def _fcsd_levels(system: MimoSystem, profile) -> list[int]:
    levels = [1]
    paths_l2 = system.constellation.order**2
    if profile.name.startswith("quick"):
        # keep L=2 only for 16-QAM in the quick profile
        if paths_l2 <= 256:
            levels.append(2)
    else:
        levels.append(2)
    return levels


def run(
    profile=None,
    panels=DEFAULT_PANELS,
    targets=DEFAULT_TARGETS,
    channel_kind: str = "testbed",
    stack_config: StackConfig = LINK_STACK_CONFIG,
) -> ExperimentResult:
    """Regenerate Fig. 9.

    Every link run and every ML calibration goes through the runtime
    ``stack_config`` describes (backend, streaming scheduler, cells);
    results are bit-identical across runtimes, only wall-clock changes.
    The runtime is embedded in the saved result.
    """
    profile = get_profile(profile)
    runtime = runtime_stack_config(stack_config)
    result = ExperimentResult(
        experiment="fig9",
        title="Fig. 9: network throughput vs available processing elements",
        profile=profile.name,
        columns=[
            "system",
            "qam",
            "per_target",
            "snr_db",
            "scheme",
            "num_pes",
            "per",
            "throughput_mbps",
        ],
    )
    ledger = MetricsRegistry()
    for num_streams, order in panels:
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        config = make_link_config(system, profile)
        rate = user_phy_rate_bps(system, 0.5)
        factory = make_sampler_factory(config, profile, channel_kind)
        for target in targets:
            snr_db = calibrate_ml_snr(
                system, target, profile, runtime, channel_kind
            )
            label = f"{num_streams}x{num_streams}"

            def record(scheme: str, num_pes: int, per: float) -> None:
                result.add_row(
                    system=label,
                    qam=order,
                    per_target=target,
                    snr_db=round(snr_db, 2),
                    scheme=scheme,
                    num_pes=num_pes,
                    per=per,
                    throughput_mbps=num_streams * rate * (1.0 - per) / 1e6,
                )

            def measure(detector, seed_offset: int):
                link = run_point(
                    config,
                    detector,
                    snr_db,
                    profile,
                    factory,
                    runtime,
                    seed_offset,
                )
                ledger.merge_dict(
                    link.metadata.get("runtime", {}).get("ledger", {})
                )
                return link

            # ML bound: by construction of the calibration.
            ml_link = measure(ml_reference_detector(system, profile), 1)
            record("ml", 0, ml_link.per)

            mmse_link = measure(MmseDetector(system), 2)
            record("mmse", 0, mmse_link.per)

            trellis_link = measure(TrellisDetector(system), 3)
            record("trellis", order, trellis_link.per)

            for level in _fcsd_levels(system, profile):
                fcsd = FcsdDetector(system, num_expanded=level)
                link = measure(fcsd, 4 + level)
                record("fcsd", fcsd.num_paths, link.per)

            for num_pes in flexcore_pe_sweep(system.num_leaves, profile):
                flexcore = FlexCoreDetector(system, num_paths=num_pes)
                link = measure(flexcore, 10 + num_pes)
                record("flexcore", num_pes, link.per)
    result.add_note(
        "throughput = Nt x per-user rate x (1 - PER); rate-1/2 802.11 "
        "coding; SNR calibrated per panel so the ML reference hits the "
        "PER target"
    )
    result.add_note(
        f"link runs and calibrations on one runtime ({runtime.describe()}) "
        "with per-channel contexts cached over the coherence of the trace"
    )
    if not profile.use_sphere_for_ml:
        result.add_note(
            "ML reference approximated by large-path FlexCore "
            f"({profile.ml_proxy_paths} paths); exact in the full profile"
        )
    if runtime.farm.streaming:
        # The streaming runtime's own story: saved with the JSON report
        # instead of being discarded with the engines.
        result.record_runtime("scheduler", scheduler_summary(ledger))
    result.config = runtime.to_dict()
    return result
