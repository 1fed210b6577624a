"""Fig. 12 regeneration bench: LTE latency feasibility + SNR-loss table."""


from repro.experiments import fig12
from repro.experiments.linkruns import LINK_STACK_CONFIG
from repro.experiments.snr_loss import build_snr_loss_table
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.ofdm.lte import LTE_MODES, SLOT_DURATION_S
from repro.parallel.gpu import GpuExecutionModel


def test_lte_support_search(benchmark, system_12x12_64qam):
    gpu = GpuExecutionModel()

    def solve_all_modes():
        return [
            gpu.max_supported_paths(
                system_12x12_64qam,
                mode.vectors_per_slot,
                SLOT_DURATION_S,
                num_channels=mode.occupied_subcarriers,
            )
            for mode in LTE_MODES
        ]

    supported = benchmark(solve_all_modes)
    assert supported[0] >= supported[-1]


def test_snr_loss_table(benchmark, tiny_profile):
    system = MimoSystem(4, 4, QamConstellation(64))
    table = benchmark.pedantic(
        build_snr_loss_table,
        args=(system, 0.1, tiny_profile, LINK_STACK_CONFIG),
        kwargs={"path_grid": (1, 16)},
        rounds=1,
        iterations=1,
    )
    assert table.losses_db[0] >= table.losses_db[-1] - 1e-9


def test_fig12_full_regeneration(benchmark, tiny_profile):
    result = benchmark.pedantic(
        fig12.run,
        kwargs={
            "profile": tiny_profile,
            "per_targets": (0.1,),
            "sizes": (8,),
        },
        rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 18  # 6 modes x 3 schemes
