"""Fig. 12: SNR loss vs ML under LTE latency constraints, per mode.

Couples the GPU execution model with the algorithmic SNR-loss tables:
for each LTE bandwidth mode, the 500 µs slot budget limits how many
FlexCore paths (or whether FCSD at all) the GPU can process in time; the
surviving path count maps to an SNR loss.  SIC is the single-path row.

Reproduced claims: FlexCore degrades gracefully from ~0.2 dB (1.25 MHz)
to a few dB (20 MHz) while FCSD is binary — it either fits (1.25 MHz,
L=1) or is unsupported; SIC can lose >10 dB.
"""

from __future__ import annotations

from repro.api import StackConfig
from repro.experiments.common import ExperimentResult, get_profile
from repro.experiments.linkruns import LINK_STACK_CONFIG, runtime_stack_config
from repro.experiments.snr_loss import build_snr_loss_table
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.ofdm.lte import LTE_MODES, SLOT_DURATION_S
from repro.parallel.gpu import GpuExecutionModel

QAM_ORDER = 64
STREAMS = 8  # CUDA streams, as §5.2 employs


def run(
    profile=None,
    per_targets=(0.1, 0.01),
    sizes=(8, 12),
    stack_config: StackConfig = LINK_STACK_CONFIG,
) -> ExperimentResult:
    """Regenerate Fig. 12.

    The SNR-loss calibrations behind every row run on the runtime
    ``stack_config`` describes, which the saved result embeds.
    """
    profile = get_profile(profile)
    runtime = runtime_stack_config(stack_config)
    gpu = GpuExecutionModel()
    result = ExperimentResult(
        experiment="fig12",
        title="Fig. 12: SNR loss vs ML under LTE latency requirements "
        "(64-QAM)",
        profile=profile.name,
        columns=[
            "system",
            "per_target",
            "lte_mode",
            "scheme",
            "supported_paths",
            "snr_loss_db",
        ],
        config=runtime.to_dict(),
    )
    for size in sizes:
        system = MimoSystem(size, size, QamConstellation(QAM_ORDER))
        fcsd_l1_paths = system.constellation.order
        for target in per_targets:
            table = build_snr_loss_table(system, target, profile, runtime)
            for mode in LTE_MODES:
                vectors = mode.vectors_per_slot
                flexcore_paths = gpu.max_supported_paths(
                    system,
                    vectors,
                    SLOT_DURATION_S,
                    streams=STREAMS,
                    num_channels=mode.occupied_subcarriers,
                )
                label = f"{size}x{size}"
                result.add_row(
                    system=label,
                    per_target=target,
                    lte_mode=mode.label(),
                    scheme="flexcore",
                    supported_paths=flexcore_paths,
                    snr_loss_db=(
                        table.loss_for_paths(flexcore_paths)
                        if flexcore_paths
                        else float("inf")
                    ),
                )
                fcsd_ok = gpu.fcsd_supported(
                    system,
                    1,
                    vectors,
                    SLOT_DURATION_S,
                    streams=STREAMS,
                    num_channels=mode.occupied_subcarriers,
                )
                result.add_row(
                    system=label,
                    per_target=target,
                    lte_mode=mode.label(),
                    scheme="fcsd",
                    supported_paths=fcsd_l1_paths if fcsd_ok else 0,
                    snr_loss_db=(
                        table.loss_for_paths(fcsd_l1_paths)
                        if fcsd_ok
                        else float("inf")
                    ),
                )
                result.add_row(
                    system=label,
                    per_target=target,
                    lte_mode=mode.label(),
                    scheme="sic",
                    supported_paths=1,
                    snr_loss_db=table.loss_for_paths(1),
                )
    result.add_note(
        "supported_paths = largest FlexCore |E| meeting the 500 us slot "
        "deadline in the GPU model; inf loss marks unsupported modes "
        "(the paper's 'x')"
    )
    result.add_note(
        "FCSD loss uses the FlexCore loss curve at |Q| paths — an upper "
        "bound on FCSD quality, favouring the baseline"
    )
    return result
