"""Fig. 10: throughput vs number of active users, and a-FlexCore's
adaptive processing-element usage.

Six to twelve 64-QAM users transmit to a 12-antenna AP at the fixed SNR
where ML hits PER 0.01 fully loaded.  Reproduced claims: MMSE is only
near-optimal when users << antennas; FlexCore/Geosphere keep scaling all
the way to Nt = Nr; a-FlexCore matches FlexCore's throughput while
activating close to one PE in easy channels and all 64 under full load.
"""

from __future__ import annotations

from repro.api import StackConfig
from repro.detectors.linear import MmseDetector
from repro.experiments.common import ExperimentResult, get_profile
from repro.experiments.linkruns import (
    LINK_STACK_CONFIG,
    calibrate_ml_snr,
    make_link_config,
    make_sampler_factory,
    ml_reference_detector,
    run_point,
    runtime_stack_config,
)
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import FlexCoreDetector
from repro.link.throughput import user_phy_rate_bps
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation

NUM_AP_ANTENNAS = 12
QAM_ORDER = 64
PER_TARGET = 0.01
AVAILABLE_PES = 64


def run(
    profile=None,
    channel_kind: str = "testbed",
    stack_config: StackConfig = LINK_STACK_CONFIG,
) -> ExperimentResult:
    profile = get_profile(profile)
    runtime = runtime_stack_config(stack_config)
    result = ExperimentResult(
        experiment="fig10",
        title="Fig. 10: throughput and active PEs vs number of users "
        "(12-antenna AP, 64-QAM)",
        profile=profile.name,
        columns=[
            "num_users",
            "scheme",
            "per",
            "throughput_mbps",
            "avg_active_pes",
        ],
        config=runtime.to_dict(),
    )
    # Calibrate at full load; reuse the same SNR for all user counts, as
    # the paper fixes 21.6 dB.
    loaded = MimoSystem(
        NUM_AP_ANTENNAS, NUM_AP_ANTENNAS, QamConstellation(QAM_ORDER)
    )
    snr_db = calibrate_ml_snr(
        loaded, PER_TARGET, profile, runtime, channel_kind
    )
    result.add_note(f"operating SNR {snr_db:.2f} dB (ML PER {PER_TARGET} at 12 users)")

    user_counts = (
        (6, 8, 10, 12) if profile.name.startswith("quick") else (6, 7, 8, 9, 10, 11, 12)
    )
    for num_users in user_counts:
        system = MimoSystem(
            num_users, NUM_AP_ANTENNAS, QamConstellation(QAM_ORDER)
        )
        config = make_link_config(system, profile)
        rate = user_phy_rate_bps(system, 0.5)
        factory = make_sampler_factory(
            config, profile, channel_kind, seed_offset=num_users
        )

        schemes = [
            ("geosphere", ml_reference_detector(system, profile), None),
            ("flexcore", FlexCoreDetector(system, num_paths=AVAILABLE_PES), None),
            (
                "a-flexcore",
                AdaptiveFlexCoreDetector(system, num_paths=AVAILABLE_PES),
                "active",
            ),
            ("mmse", MmseDetector(system), None),
        ]
        for index, (name, detector, track) in enumerate(schemes):
            link = run_point(
                config, detector, snr_db, profile, factory, runtime, 100 + index
            )
            active = link.metadata.get("average_active_paths", float("nan"))
            result.add_row(
                num_users=num_users,
                scheme=name,
                per=link.per,
                throughput_mbps=num_users * rate * (1.0 - link.per) / 1e6,
                avg_active_pes=active if track else float("nan"),
            )
    if not profile.use_sphere_for_ml:
        result.add_note(
            "Geosphere approximated by large-path FlexCore in this profile"
        )
    return result
