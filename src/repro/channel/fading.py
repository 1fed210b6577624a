"""Small-scale fading models.

Entries are normalised to unit average power (``E[|h|^2] = 1``) so the
per-user receive SNR convention of :mod:`repro.mimo.model` holds.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_rng


def rayleigh_channel(num_rx: int, num_tx: int, rng=None) -> np.ndarray:
    """One i.i.d. Rayleigh channel matrix, shape ``(num_rx, num_tx)``."""
    return rayleigh_channels(1, num_rx, num_tx, rng)[0]


def rayleigh_channels(
    count: int, num_rx: int, num_tx: int, rng=None
) -> np.ndarray:
    """A batch of i.i.d. CN(0, 1) channels, shape ``(count, num_rx, num_tx)``."""
    generator = as_rng(rng)
    shape = (count, num_rx, num_tx)
    return (
        generator.standard_normal(shape) + 1j * generator.standard_normal(shape)
    ) / np.sqrt(2.0)
