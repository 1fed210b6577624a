#!/usr/bin/env python3
"""A 12-user coded uplink over the simulated indoor office testbed.

Reproduces the paper's headline scenario (§5.1) in miniature: twelve
64-QAM users transmit 802.11-coded packets to a 12-antenna AP; the
channel comes from the geometric office simulator (the WARP substitute).
Compares network throughput of FlexCore at several PE budgets against
MMSE and FCSD — a one-panel, low-trial slice of Fig. 9.

Run:  python examples/office_uplink.py [serial|array]

The optional argument selects the runtime execution backend; ``array``
runs the stacked tensor-walk kernel (natively, where ``repro.native``
has a lane) with its walk plans kept resident across packets.  Results
are identical across backends.
"""

import sys

from repro import FcsdDetector, FlexCoreDetector, MimoSystem, MmseDetector, QamConstellation
from repro.api import BackendSpec, StackConfig, build_stack
from repro.channel import IndoorTestbed
from repro.link import LinkConfig, simulate_link
from repro.link.channels import testbed_sampler


def main() -> None:
    backend = sys.argv[1] if len(sys.argv) > 1 else "serial"
    system = MimoSystem(12, 12, QamConstellation(64))
    config = LinkConfig(
        system=system, ofdm_symbols_per_packet=2, num_subcarriers=16
    )
    testbed = IndoorTestbed(num_rx=12, rng=2017)
    sampler = testbed_sampler(config, testbed, num_frames=8)
    snr_db = 14.0
    packets = 16

    print(
        f"{system.label()}: {packets} packets over the office testbed at "
        f"{snr_db:.1f} dB ({backend} backend)\n"
    )
    print(
        f"{'scheme':24s} {'PEs':>5s} {'PER':>7s} {'throughput':>12s} "
        f"{'prepares':>9s} {'cache hits':>11s}"
    )

    schemes = [
        ("MMSE", 0, MmseDetector(system)),
        ("FCSD (L=1)", 64, FcsdDetector(system, num_expanded=1)),
        ("FlexCore", 16, FlexCoreDetector(system, num_paths=16)),
        ("FlexCore", 64, FlexCoreDetector(system, num_paths=64)),
        ("FlexCore", 196, FlexCoreDetector(system, num_paths=196)),
    ]
    # One runtime description shared by every scheme; each detector gets
    # its own stack (and cache) built from it through the api facade.
    stack_config = StackConfig(backend=BackendSpec(backend))
    resident_rows = []
    for name, pes, detector in schemes:
        # The batched runtime detects all 16 subcarriers per packet in
        # one call and caches per-channel contexts; the 8-frame trace
        # cycles, so packets 9..16 hit the cache instead of re-running QR
        # and FlexCore pre-processing.
        with build_stack(stack_config, detector=detector) as engine:
            result = simulate_link(
                config, detector, snr_db, packets, sampler, rng=1,
                engine=engine,
            )
            store = getattr(engine.backend, "resident_store", None)
            if store is not None:
                resident_rows.append((name, pes, store.stats))
        throughput = result.network_throughput_bps(config) / 1e6
        runtime = result.metadata["runtime"]
        print(
            f"{name:24s} {pes:>5d} {result.per:>7.3f} "
            f"{throughput:>9.1f} Mb/s "
            f"{runtime['contexts_prepared']:>9d} "
            f"{runtime['context_cache_hits']:>11d}"
        )

    if resident_rows:
        print(
            "\nDevice residency (array backend): the stacked tensors "
            "upload once per coherence group; warm packets reuse the "
            "resident copies — zero context bytes on the steady path."
        )
        for name, pes, stats in resident_rows:
            print(
                f"  {name:16s} ({pes:>3d} PEs): {stats.entries} groups "
                f"resident, {stats.hits} warm hits, "
                f"{stats.misses} uploads, "
                f"{stats.invalidations} invalidations"
            )

    print(
        "\nFlexCore runs at ANY PE count (here 16/64/196) while FCSD is "
        "locked to powers of |Q| — the flexibility Fig. 9 demonstrates."
        "\nThe coherence cache prepares each distinct channel once and "
        "serves every recurrence for free — the §4 amortisation."
    )


if __name__ == "__main__":
    main()
