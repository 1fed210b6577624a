"""SNR-loss-vs-ML tables: the algorithmic input to Fig. 12.

For a given system, the loss of FlexCore at ``p`` paths is the extra SNR
it needs (relative to the ML reference) to reach the same target PER.
Losses are computed at a grid of path counts by bisection and
interpolated in ``log2(paths)`` for arbitrary counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import StackConfig, build_stack
from repro.experiments.common import ExperimentProfile, get_profile
from repro.experiments.linkruns import (
    calibrate_ml_snr,
    make_link_config,
    make_sampler_factory,
)
from repro.flexcore.detector import FlexCoreDetector
from repro.link.calibration import find_snr_for_per
from repro.mimo.system import MimoSystem


@dataclass
class SnrLossTable:
    """Interpolatable SNR-loss curve for one (system, PER target)."""

    path_counts: np.ndarray
    losses_db: np.ndarray
    ml_snr_db: float

    def loss_for_paths(self, num_paths: float) -> float:
        """Interpolated loss; clamped to the measured grid ends."""
        if num_paths <= 0:
            return float(self.losses_db[0])
        log_paths = np.log2(num_paths)
        grid = np.log2(self.path_counts)
        return float(np.interp(log_paths, grid, self.losses_db))


def build_snr_loss_table(
    system: MimoSystem,
    target_per: float,
    profile: ExperimentProfile | str | None,
    stack_config: StackConfig,
    channel_kind: str = "testbed",
    path_grid: tuple[int, ...] | None = None,
) -> SnrLossTable:
    """Bisection-calibrated SNR loss at a grid of FlexCore path counts.

    One path is SIC (greedy single tree path), so the table covers the
    SIC line of Fig. 12 as well.  Every probe runs on a
    ``stack_config`` stack; one stack per detector carries its context
    cache through the whole bisection.
    """
    profile = get_profile(profile)
    if path_grid is None:
        path_grid = (
            (1, 4, 16, 64)
            if profile.name.startswith("quick")
            else (1, 2, 4, 8, 16, 32, 64, 128)
        )
    config = make_link_config(system, profile)
    factory = make_sampler_factory(config, profile, channel_kind)
    ml_snr_db = calibrate_ml_snr(
        system, target_per, profile, stack_config, channel_kind
    )
    losses = []
    for paths in path_grid:
        detector = FlexCoreDetector(system, num_paths=paths)
        with build_stack(stack_config, detector=detector) as engine:
            calibrated = find_snr_for_per(
                config,
                detector,
                target_per,
                factory,
                num_packets=profile.calibration_packets,
                snr_low_db=ml_snr_db - 1.0,
                snr_high_db=ml_snr_db + 25.0,
                seed=profile.seed,
                engine=engine,
            )
        losses.append(max(calibrated.snr_db - ml_snr_db, 0.0))
    return SnrLossTable(
        path_counts=np.asarray(path_grid, dtype=float),
        losses_db=np.asarray(losses),
        ml_snr_db=ml_snr_db,
    )
