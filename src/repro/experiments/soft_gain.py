"""Extension experiment: soft-output FlexCore's coding gain.

Not a paper artefact — §7 names soft detection as future work; this
experiment quantifies what it buys on the reproduced system: coded
PER/BER of hard-decision FlexCore vs max-log soft FlexCore over an SNR
sweep, at a fixed PE budget.
"""

from __future__ import annotations

from repro.api import StackConfig
from repro.experiments.common import ExperimentResult, get_profile
from repro.experiments.linkruns import (
    LINK_STACK_CONFIG,
    make_link_config,
    make_sampler_factory,
    runtime_stack_config,
)
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.link.simulation import simulate_link
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation

NUM_PATHS = 32


def run(
    profile=None,
    num_streams: int = 8,
    qam_order: int = 16,
    snrs_db: tuple[float, ...] = (4.0, 5.0, 6.0, 7.0),
    stack_config: StackConfig = LINK_STACK_CONFIG,
) -> ExperimentResult:
    profile = get_profile(profile)
    runtime = runtime_stack_config(stack_config)
    system = MimoSystem(num_streams, num_streams, QamConstellation(qam_order))
    config = make_link_config(system, profile)
    factory = make_sampler_factory(config, profile, "testbed")
    detector = SoftFlexCoreDetector(system, num_paths=NUM_PATHS)

    result = ExperimentResult(
        experiment="soft_gain",
        title=f"Extension: soft vs hard FlexCore "
        f"({system.label()}, {NUM_PATHS} PEs)",
        profile=profile.name,
        columns=["snr_db", "decisions", "per", "ber"],
        config=runtime.to_dict(),
    )
    for snr_db in snrs_db:
        for soft in (False, True):
            link = simulate_link(
                config,
                detector,
                snr_db,
                profile.packets_per_point,
                factory(),
                rng=profile.seed,
                use_soft=soft,
                stack_config=runtime,
            )
            result.add_row(
                snr_db=snr_db,
                decisions="soft" if soft else "hard",
                per=link.per,
                ber=link.ber,
            )
    # Summarise the gain at the steepest point of the waterfall.
    hard_bers = [r["ber"] for r in result.rows if r["decisions"] == "hard"]
    soft_bers = [r["ber"] for r in result.rows if r["decisions"] == "soft"]
    improved = sum(
        soft <= hard for hard, soft in zip(hard_bers, soft_bers)
    )
    result.add_note(
        f"soft decisions match or beat hard at {improved}/{len(hard_bers)} "
        "SNR points (max-log LLRs from the FlexCore candidate list)"
    )
    return result
