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


from repro.detectors.fcsd import FcsdDetector
from repro.detectors.linear import MmseDetector
from repro.detectors.trellis import TrellisDetector
from repro.experiments.common import ExperimentResult, get_profile
from repro.experiments.linkruns import (
    calibrate_ml_snr,
    flexcore_pe_sweep,
    make_link_config,
    make_sampler_factory,
    make_stack,
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
    backend: str = "serial",
    streaming: bool = False,
    cells: int = 1,
    stack_config=None,
) -> ExperimentResult:
    """Regenerate Fig. 9.

    ``backend`` selects the runtime execution backend every link run goes
    through (``"serial"`` or ``"array"`` — the stacked tensor walk);
    results are identical across backends, only
    wall-clock changes.  ``streaming=True`` routes detection through the
    slot-deadline scheduler sharded over ``cells`` cells instead of the
    direct batch engine — again bit-identical, exercising the streaming
    service path end to end.  ``stack_config`` (a
    :class:`repro.api.StackConfig`, e.g. from the runner's ``--config``)
    is authoritative over the individual flags and is embedded in the
    saved result.
    """
    profile = get_profile(profile)
    runtime_config = runtime_stack_config(
        stack_config, backend=backend, streaming=streaming, cells=cells
    )
    backend = runtime_config.backend.name
    streaming = runtime_config.farm.streaming
    cells = runtime_config.farm.cells
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
            snr_db = calibrate_ml_snr(system, target, profile, channel_kind)
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

            # Every measurement goes through the batched runtime; one
            # engine per detector keeps prepared contexts hot across the
            # packets of its run (the trace sampler cycles frames).
            def measure(detector, seed_offset: int):
                with make_stack(detector, runtime_config) as engine:
                    link = run_point(
                        config,
                        detector,
                        snr_db,
                        profile,
                        factory,
                        seed_offset,
                        engine=engine,
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
    runtime_note = (
        f"streaming scheduler across {cells} cell(s) on the {backend} "
        "backend" if streaming else f"batched uplink runtime ({backend} "
        "backend)"
    )
    result.add_note(
        f"link runs executed by the {runtime_note} with per-channel "
        "contexts cached over the coherence of the trace"
    )
    if not profile.use_sphere_for_ml:
        result.add_note(
            "ML reference approximated by large-path FlexCore "
            f"({profile.ml_proxy_paths} paths); exact in the full profile"
        )
    if streaming:
        # The streaming runtime's own story: saved with the JSON report
        # instead of being discarded with the engines.
        result.record_runtime("scheduler", scheduler_summary(ledger))
    result.config = runtime_config.to_dict()
    return result
