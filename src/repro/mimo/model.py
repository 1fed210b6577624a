"""The narrowband uplink model ``y = H s + n`` and SNR conventions.

SNR convention (used everywhere in this reproduction): the *per-user receive
SNR* at one AP antenna,

    SNR = Es * E[|H[r, u]|^2] / sigma^2,

with unit-energy constellations (``Es = 1``) and unit-variance channel
entries this reduces to ``SNR = 1 / sigma^2``.  The paper schedules users so
their individual SNRs differ by at most 3 dB (§5.1), which this convention
makes explicit; network-level quantities then scale with the number of
users, as in Fig. 10.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.utils.rng import as_rng


def noise_variance_for_snr_db(snr_db: float, symbol_energy: float = 1.0) -> float:
    """Complex noise variance ``sigma^2`` for a per-user receive SNR in dB."""
    return float(symbol_energy * 10.0 ** (-snr_db / 10.0))


def snr_db_for_noise_variance(noise_var: float, symbol_energy: float = 1.0) -> float:
    """Inverse of :func:`noise_variance_for_snr_db`."""
    return float(10.0 * np.log10(symbol_energy / noise_var))


def apply_channel(
    channel: np.ndarray,
    symbols: np.ndarray,
    noise_var: float,
    rng=None,
) -> np.ndarray:
    """Propagate transmit vectors through ``y = H s + n``.

    Parameters
    ----------
    channel:
        ``(Nr, Nt)`` complex channel matrix.
    symbols:
        ``(n, Nt)`` batch of transmit vectors.
    noise_var:
        Total complex noise variance per receive antenna (``E[|n_r|^2]``);
        each real dimension gets half of it.
    rng:
        Seed or generator for the noise.

    Returns
    -------
    ``(n, Nr)`` received vectors.
    """
    channel = np.asarray(channel)
    symbols = np.asarray(symbols)
    if symbols.ndim != 2 or channel.ndim != 2:
        raise DimensionError("apply_channel expects 2-D arrays")
    if symbols.shape[1] != channel.shape[1]:
        raise DimensionError(
            f"symbols have {symbols.shape[1]} streams but channel expects "
            f"{channel.shape[1]}"
        )
    clean = symbols @ channel.T
    return clean + channel_noise(clean.shape, noise_var, rng)


def channel_noise(shape, noise_var: float, rng=None) -> np.ndarray:
    """The ``n`` of :func:`apply_channel`: complex Gaussian noise of total
    variance ``noise_var``, the real parts drawn before the imaginary."""
    generator = as_rng(rng)
    scale = np.sqrt(noise_var / 2.0)
    return scale * (generator.standard_normal(shape) + 1j * generator.standard_normal(shape))
