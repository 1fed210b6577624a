"""Table 1: depth-first sphere decoding cost vs MIMO size.

Reproduces the throughput-achieved / GFLOPS-required table for exact ML
depth-first sphere decoding at 16-QAM, 13 dB SNR over Rayleigh channels
(footnotes 1-2 of the paper): the point being that the per-core compute
requirement explodes exponentially while throughput only grows linearly.

GFLOPS = (measured real operations per received vector) x (vector arrival
rate), with vectors arriving on ~50 subcarriers every 4 µs OFDM symbol at
20 MHz.
"""

from __future__ import annotations

from repro.api import StackConfig
from repro.channel.fading import rayleigh_channel
from repro.detectors.sphere import SphereDecoder
from repro.experiments.common import ExperimentResult, get_profile
from repro.experiments.linkruns import (
    LINK_STACK_CONFIG,
    make_link_config,
    make_sampler_factory,
    run_point,
    runtime_stack_config,
)
from repro.link.throughput import user_phy_rate_bps
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.utils.flops import FlopCounter
from repro.utils.rng import as_rng

SNR_DB = 13.0
SUBCARRIERS_ON_AIR = 50
OFDM_SYMBOL_S = 4e-6
PAPER_GFLOPS = {2: 1.2, 4: 13.0, 6: 105.0, 8: 837.0}
PAPER_THROUGHPUT_MBPS = {2: 45.0, 4: 100.0, 6: 162.0, 8: 223.0}


def measure_sphere_flops(
    system: MimoSystem, snr_db: float, trials: int, rng=None
) -> tuple[float, float]:
    """(average real ops per vector, average nodes per vector)."""
    generator = as_rng(rng)
    noise_var = noise_variance_for_snr_db(snr_db)
    decoder = SphereDecoder(system)
    counter = FlopCounter()
    vectors_per_channel = 4
    channels = max(1, trials // vectors_per_channel)
    total_vectors = 0
    for _ in range(channels):
        channel = rayleigh_channel(
            system.num_rx_antennas, system.num_streams, generator
        )
        indices = random_symbol_indices(
            vectors_per_channel, system.num_streams, system.constellation, generator
        )
        received = apply_channel(
            channel, system.constellation.points[indices], noise_var, generator
        )
        context = decoder.prepare(channel, noise_var)
        decoder.detect_prepared(context, received, counter=counter)
        total_vectors += vectors_per_channel
    return (
        counter.total_flops / total_vectors,
        counter.nodes_visited / total_vectors,
    )


def run(
    profile=None, stack_config: StackConfig = LINK_STACK_CONFIG
) -> ExperimentResult:
    profile = get_profile(profile)
    runtime = runtime_stack_config(stack_config)
    result = ExperimentResult(
        experiment="table1",
        title="Table 1: sphere decoder throughput vs required GFLOPS "
        "(16-QAM, 13 dB, Rayleigh)",
        profile=profile.name,
        columns=[
            "antennas",
            "throughput_mbps",
            "gflops_required",
            "nodes_per_vector",
            "paper_throughput_mbps",
            "paper_gflops",
        ],
        config=runtime.to_dict(),
    )
    vector_rate = SUBCARRIERS_ON_AIR / OFDM_SYMBOL_S
    for size in (2, 4, 6, 8):
        system = MimoSystem(size, size, QamConstellation(16))
        flops_per_vector, nodes = measure_sphere_flops(
            system, SNR_DB, profile.flops_trials, rng=profile.seed + size
        )
        gflops = flops_per_vector * vector_rate / 1e9

        config = make_link_config(system, profile)
        factory = make_sampler_factory(config, profile, "rayleigh")
        decoder = SphereDecoder(system)
        link = run_point(
            config, decoder, SNR_DB, profile, factory, runtime, seed_offset=size
        )
        rate = user_phy_rate_bps(system, 0.5)
        throughput = size * rate * (1.0 - link.per) / 1e6

        result.add_row(
            antennas=f"{size}x{size}",
            throughput_mbps=throughput,
            gflops_required=gflops,
            nodes_per_vector=nodes,
            paper_throughput_mbps=PAPER_THROUGHPUT_MBPS[size],
            paper_gflops=PAPER_GFLOPS[size],
        )
    result.add_note(
        "GFLOPS = measured ops/vector x 12.5M vectors/s (50 subcarriers, "
        "4 us symbols); paper column shown for shape comparison"
    )
    return result
