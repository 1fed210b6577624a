"""Ablation studies: each FlexCore design choice below, switched alone.

Not a paper artefact — these quantify the contribution of individual
FlexCore design decisions on top of the reproduction:

* triangle LUT vs exact per-level sorting (accuracy cost of the
  approximation vs its complexity saving);
* QR ordering variants (plain / Wübben-sorted / FCSD);
* parallel pre-processing batch size (the N_PE/B >= 10 rule);
* corrected vs verbatim Eq. 4 probability constants.
"""

from __future__ import annotations

import numpy as np

from repro.channel.fading import rayleigh_channel
from repro.experiments.common import ExperimentResult, get_profile
from repro.flexcore.detector import FlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.utils.rng import as_rng


def _vector_error_rate(
    detector, system, snr_db, trials, seed, vectors_per_channel=8
) -> float:
    generator = as_rng(seed)
    noise_var = noise_variance_for_snr_db(snr_db)
    errors = 0
    total = 0
    channels = max(trials // vectors_per_channel, 1)
    for _ in range(channels):
        channel = rayleigh_channel(
            system.num_rx_antennas, system.num_streams, generator
        )
        indices = random_symbol_indices(
            vectors_per_channel, system.num_streams, system.constellation,
            generator,
        )
        received = apply_channel(
            channel, system.constellation.points[indices], noise_var, generator
        )
        detected = detector.detect(channel, received, noise_var).indices
        errors += int(np.count_nonzero((detected != indices).any(axis=1)))
        total += vectors_per_channel
    return errors / total


def run(profile=None) -> ExperimentResult:
    profile = get_profile(profile)
    system = MimoSystem(8, 8, QamConstellation(16))
    snr_db = 15.0
    trials = max(profile.flops_trials * 4, 200)
    result = ExperimentResult(
        experiment="ablations",
        title="Ablations: FlexCore design choices (8x8 16-QAM, 15 dB, "
        "64 paths)",
        profile=profile.name,
        columns=["ablation", "variant", "vector_error_rate"],
    )

    variants = {
        "ordering": {
            "triangle_lut": FlexCoreDetector(system, 64),
            "exact_sort": FlexCoreDetector(system, 64, use_exact_ordering=True),
        },
        "qr_method": {
            "sorted": FlexCoreDetector(system, 64, qr_method="sorted"),
            "fcsd": FlexCoreDetector(system, 64, qr_method="fcsd"),
            "plain": FlexCoreDetector(system, 64, qr_method="plain"),
        },
        "pe_formula": {
            "corrected": FlexCoreDetector(system, 64, pe_formula="corrected"),
            "paper_literal": FlexCoreDetector(system, 64, pe_formula="paper"),
        },
        "batch_expansion": {
            "sequential": FlexCoreDetector(system, 64, batch_expansion=1),
            "batch_6(NPE/B~10)": FlexCoreDetector(system, 64, batch_expansion=6),
            "batch_32(NPE/B=2)": FlexCoreDetector(system, 64, batch_expansion=32),
        },
    }
    for ablation, table in variants.items():
        for variant, detector in table.items():
            rate = _vector_error_rate(
                detector, system, snr_db, trials, profile.seed
            )
            result.add_row(
                ablation=ablation, variant=variant, vector_error_rate=rate
            )
    return result
