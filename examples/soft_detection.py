#!/usr/bin/env python3
"""Soft-output FlexCore: the paper's §7 future work, in action.

Runs the same coded uplink twice — once feeding the Viterbi decoder hard
decisions, once max-log LLRs computed from FlexCore's candidate list —
and prints the coded error rates side by side across an SNR sweep.

Run:  python examples/soft_detection.py
"""

from repro import MimoSystem, QamConstellation
from repro.flexcore import SoftFlexCoreDetector
from repro.link import LinkConfig, simulate_link
from repro.link.channels import rayleigh_sampler


def main() -> None:
    system = MimoSystem(8, 8, QamConstellation(16))
    config = LinkConfig(
        system=system, ofdm_symbols_per_packet=2, num_subcarriers=16
    )
    detector = SoftFlexCoreDetector(system, num_paths=32)
    packets = 16

    print(
        f"{system.label()}, {detector.num_paths} PEs, rate-1/2 coding, "
        f"{packets} packets per point\n"
    )
    print(
        f"{'SNR':>6s} {'hard PER':>9s} {'hard BER':>9s} "
        f"{'soft PER':>9s} {'soft BER':>9s}"
    )
    for snr_db in (4.0, 5.0, 6.0, 7.0):
        hard = simulate_link(
            config, detector, snr_db, packets, rayleigh_sampler(config), rng=5
        )
        soft = simulate_link(
            config,
            detector,
            snr_db,
            packets,
            rayleigh_sampler(config),
            rng=5,
            use_soft=True,
        )
        print(
            f"{snr_db:>5.1f}  {hard.per:>9.3f} {hard.ber:>9.5f} "
            f"{soft.per:>9.3f} {soft.ber:>9.5f}"
        )
    print(
        "\nThe LLRs reuse the Euclidean distances the hard detector "
        "already computed: each frame's candidates are ranked once and "
        "every bit reads its two minima off that list (a soft block "
        "costs about 1.6x a hard one), and the embarrassing parallelism "
        "survives."
    )


if __name__ == "__main__":
    main()
