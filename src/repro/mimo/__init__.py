"""MIMO system descriptors, channel model glue and QR decompositions."""

from repro.mimo.model import apply_channel, noise_variance_for_snr_db, snr_db_for_noise_variance
from repro.mimo.qr import (
    QrDecomposition,
    fcsd_sorted_qr,
    mmse_filter,
    plain_qr,
    sorted_qr,
    zf_filter,
)
from repro.mimo.system import MimoSystem

__all__ = [
    "MimoSystem",
    "QrDecomposition",
    "apply_channel",
    "fcsd_sorted_qr",
    "mmse_filter",
    "noise_variance_for_snr_db",
    "plain_qr",
    "snr_db_for_noise_variance",
    "sorted_qr",
    "zf_filter",
]
