"""QR decompositions and detection orderings.

Three flavours are used across the paper:

* :func:`plain_qr` — unsorted QR with a positive real diagonal, the basic
  transform that turns ML detection into the tree search of §2.
* :func:`sorted_qr` — Wübben et al. sorted QR ([13] in the paper): at each
  Gram-Schmidt step the remaining column with the *smallest* residual norm
  is processed next, which leaves the strongest streams for the last
  columns, i.e. the top of the detection tree.
* :func:`fcsd_sorted_qr` — Barbero & Thompson's FCSD ordering ([4]): the
  ``L`` fully-expanded top tree levels take the *weakest* streams (full
  expansion makes their errors harmless) while the single-child levels get
  the strongest.  FlexCore reuses the same routine with ``num_expanded=0``
  semantics through :func:`sorted_qr`.

All routines also expose ZF / MMSE filter construction for the linear
baselines; real-multiplication accounting for Table 2 uses the ``4 Nt^3``
convention stated there.

Each stacked routine returns one :class:`QrBlock` of ``(B, ...)`` arrays,
whose rows are :class:`QrDecomposition` views, and each single-channel
routine is row 0 of its stacked twin on a one-channel block.  The sorted
QR has the walk's two lanes (:mod:`repro.native`): ``qr.c``, or a numpy
recursion over the block (``CC=false``); serial and stacked paths are
bit-identical within a lane, and across lanes ``Q`` and ``R`` agree to a
few ulp and the permutation except at residual-norm ties.  Plain and
FCSD QR are numpy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import native
from repro.errors import DimensionError
from repro.utils.flops import NULL_COUNTER, FlopCounter


@dataclass(frozen=True)
class QrDecomposition:
    """Result of an (optionally sorted) QR factorisation ``H P = Q R``.

    Attributes
    ----------
    q:
        ``(Nr, Nt)`` matrix with orthonormal columns.
    r:
        ``(Nt, Nt)`` upper-triangular with non-negative real diagonal.
    permutation:
        ``permutation[k]`` is the original column index placed at position
        ``k``; detectors must un-permute their symbol estimates with
        :meth:`restore_order`.
    """

    q: np.ndarray
    r: np.ndarray
    permutation: np.ndarray

    def restore_order(self, detected: np.ndarray) -> np.ndarray:
        """Map per-position estimates back to original stream order.

        ``detected`` has positions along its last axis.
        """
        restored = np.empty_like(detected)
        restored[..., self.permutation] = detected
        return restored

    def rotate_received(self, received: np.ndarray) -> np.ndarray:
        """Compute ``y_bar = Q* y`` for a batch of received vectors."""
        return np.asarray(received) @ self.q.conj()


def _fix_diagonal_phase(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate so every diagonal entry of R is real and non-negative.

    Works on a single ``(Nr, Nt)`` / ``(Nt, Nt)`` pair or a stacked
    ``(..., Nr, Nt)`` / ``(..., Nt, Nt)`` block; the arithmetic is
    elementwise either way, so stacked results are bit-identical to the
    per-matrix path.
    """
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    magnitude = np.abs(diag)
    safe = np.where(magnitude > 0, diag, 1.0)
    phase = np.where(magnitude > 0, safe / np.abs(safe), 1.0)
    q = q * phase[..., None, :]
    r = r * phase.conj()[..., :, None]
    return q, np.triu(r)


@dataclass(frozen=True, eq=False)
class QrBlock(Sequence):
    """The QR factorisations of a ``(B, Nr, Nt)`` channel block, stacked:
    ``q`` ``(B, Nr, Nt)``, ``r`` ``(B, Nt, Nt)`` and ``permutation``
    ``(B, Nt)``.  Row ``b`` is channel ``b``'s :class:`QrDecomposition`,
    built as a view when it is asked for."""

    q: np.ndarray
    r: np.ndarray
    permutation: np.ndarray

    def __len__(self) -> int:
        return self.q.shape[0]

    def __getitem__(self, b) -> QrDecomposition:
        return QrDecomposition(q=self.q[b], r=self.r[b], permutation=self.permutation[b])


def _single(channel: np.ndarray, who: str) -> np.ndarray:
    channel = np.asarray(channel)
    if channel.ndim != 2 or channel.shape[0] < channel.shape[1]:
        raise DimensionError(f"{who} expects a tall (Nr >= Nt) matrix")
    return channel[None]


def plain_qr(channel: np.ndarray, counter: FlopCounter = NULL_COUNTER) -> QrDecomposition:
    """Unsorted thin QR of the channel matrix: :func:`stacked_plain_qr`
    of a one-channel block."""
    return stacked_plain_qr(_single(channel, "plain_qr"), counter=counter)[0]


def sorted_qr(
    channel: np.ndarray, counter: FlopCounter = NULL_COUNTER
) -> QrDecomposition:
    """Wübben sorted QR (weakest stream first, strongest at the tree top):
    :func:`stacked_sorted_qr` of a one-channel block, on this process's
    lane."""
    return stacked_sorted_qr(_single(channel, "sorted_qr"), counter=counter)[0]


def fcsd_sorted_qr(
    channel: np.ndarray,
    num_expanded: int,
    noise_var: float = 0.0,
    counter: FlopCounter = NULL_COUNTER,
) -> QrDecomposition:
    """Barbero-Thompson FCSD ordering: :func:`stacked_fcsd_sorted_qr` of a
    one-channel block.

    The detection order runs from QR position ``Nt`` (tree top) down to 1.
    For the first ``num_expanded`` detected levels the *least* reliable
    remaining stream is selected (its full expansion absorbs the damage);
    afterwards the *most* reliable remaining stream is selected, V-BLAST
    style.  Reliability is measured by the post-nulling noise amplification
    (pseudo-inverse row norms), optionally MMSE-regularised.
    """
    return stacked_fcsd_sorted_qr(
        _single(channel, "fcsd_sorted_qr"), num_expanded, noise_var, counter=counter
    )[0]


def _check_stacked_channels(channels: np.ndarray, who: str) -> np.ndarray:
    channels = np.asarray(channels)
    if channels.ndim != 3 or channels.shape[1] < channels.shape[2]:
        raise DimensionError(
            f"{who} expects a (B, Nr >= Nt, Nt) channel block, got "
            f"{channels.shape}"
        )
    return channels


def stacked_plain_qr(
    channels: np.ndarray, counter: FlopCounter = NULL_COUNTER
) -> QrBlock:
    """Unsorted QR of a whole ``(B, Nr, Nt)`` channel block in one shot,
    each with a positive real diagonal: ``np.linalg.qr`` runs the same
    LAPACK factorisation per stacked matrix."""
    channels = _check_stacked_channels(channels, "stacked_plain_qr")
    num_matrices, _, num_streams = channels.shape
    q, r = np.linalg.qr(channels)
    q, r = _fix_diagonal_phase(q, r)
    # Table 2 convention: a QR decomposition of an Nt x Nt complex matrix
    # costs about 4 * Nt^3 real multiplications.
    counter.add_real_mults(4 * num_streams**3 * num_matrices)
    return QrBlock(
        q=q, r=r, permutation=np.tile(np.arange(num_streams, dtype=np.int64), (num_matrices, 1))
    )


def stacked_sorted_qr(
    channels: np.ndarray, counter: FlopCounter = NULL_COUNTER
) -> QrBlock:
    """Wübben sorted QR of a ``(B, Nr, Nt)`` block: one ``qr.c`` call on
    the native lane, else the column-pick/Gram-Schmidt recursion once per
    tree level, vectorised over B — the same steps, summed in another
    order."""
    channels = _check_stacked_channels(channels, "stacked_sorted_qr")
    num_matrices, _, num_streams = channels.shape
    kernel = native.kernel()
    factorise = _sorted_recursion if kernel is None or num_matrices == 0 else kernel.sorted_qr
    q, r, permutation = factorise(np.array(channels, dtype=np.complex128, order="C"))
    counter.add_real_mults(4 * num_streams**3 * num_matrices)
    return QrBlock(q=q, r=r, permutation=permutation)


def _sorted_recursion(work: np.ndarray) -> tuple:
    """The portable lane of :func:`stacked_sorted_qr` on ``work``, a
    complex128 copy of the block it overwrites: ``(q, r, permutation)``."""
    num_matrices, num_rx, num_streams = work.shape
    q = np.zeros((num_matrices, num_rx, num_streams), dtype=np.complex128)
    r = np.zeros((num_matrices, num_streams, num_streams), dtype=np.complex128)
    permutation = np.tile(
        np.arange(num_streams, dtype=np.int64), (num_matrices, 1)
    )
    rows = np.arange(num_matrices)

    for k in range(num_streams):
        norms = np.sum(np.abs(work[:, :, k:]) ** 2, axis=1)
        pick = k + np.argmin(norms, axis=1)
        # Per-matrix column swap k <-> pick (no-op where pick == k).
        column = work[rows, :, k].copy()
        work[rows, :, k] = work[rows, :, pick]
        work[rows, :, pick] = column
        column = r[rows, :, k].copy()
        r[rows, :, k] = r[rows, :, pick]
        r[rows, :, pick] = column
        entry = permutation[rows, k].copy()
        permutation[rows, k] = permutation[rows, pick]
        permutation[rows, pick] = entry

        rkk = np.sqrt(np.sum(np.abs(work[:, :, k]) ** 2, axis=1))
        r[:, k, k] = rkk
        nonzero = rkk > 0
        scale = np.where(nonzero, rkk, 1.0)
        q[:, :, k] = np.where(
            nonzero[:, None], work[:, :, k] / scale[:, None], 0.0
        )
        projections = np.matmul(
            q[:, None, :, k].conj(), work[:, :, k + 1 :]
        )[:, 0, :]
        r[:, k, k + 1 :] = projections
        work[:, :, k + 1 :] -= q[:, :, k][:, :, None] * projections[:, None, :]
    return q, r, permutation


def stacked_fcsd_sorted_qr(
    channels: np.ndarray,
    num_expanded: int,
    noise_var: float = 0.0,
    counter: FlopCounter = NULL_COUNTER,
) -> QrBlock:
    """FCSD-ordered QR of a ``(B, Nr, Nt)`` block.

    The greedy reliability ordering is inherently sequential per channel
    (each step's pinv depends on the previous pick), so it stays a small
    per-channel loop; the heavy factorisation then runs as one stacked
    QR of the permuted block.
    """
    channels = _check_stacked_channels(channels, "stacked_fcsd_sorted_qr")
    num_matrices, _, num_streams = channels.shape
    permutation = np.array(
        [_fcsd_ordering(channel, num_expanded, noise_var) for channel in channels],
        dtype=np.int64,
    ).reshape(num_matrices, num_streams)
    permuted = np.take_along_axis(channels, permutation[:, None, :], axis=2)
    # The inner plain QR is not charged separately; the 4 Nt^3
    # convention covers the whole factorisation.
    base = stacked_plain_qr(permuted)
    counter.add_real_mults(4 * num_streams**3 * num_matrices)
    return QrBlock(q=base.q, r=base.r, permutation=permutation)


def _fcsd_ordering(
    channel: np.ndarray, num_expanded: int, noise_var: float
) -> np.ndarray:
    """The Barbero-Thompson detection ordering of one channel."""
    num_streams = channel.shape[1]
    if not 0 <= num_expanded <= num_streams:
        raise DimensionError(
            f"num_expanded must lie in [0, {num_streams}], got {num_expanded}"
        )
    remaining = list(range(num_streams))
    ordered: list[int] = []
    for detect_step in range(num_streams):
        sub = channel[:, remaining]
        gram = sub.conj().T @ sub
        if noise_var > 0.0:
            gram = gram + noise_var * np.eye(len(remaining))
        inverse = np.linalg.pinv(gram)
        amplification = np.real(np.diagonal(inverse))
        if detect_step < num_expanded:
            pick = int(np.argmax(amplification))
        else:
            pick = int(np.argmin(amplification))
        ordered.append(remaining.pop(pick))
    return np.array(ordered[::-1], dtype=np.int64)


def zf_filter(channel: np.ndarray, counter: FlopCounter = NULL_COUNTER) -> np.ndarray:
    """Zero-forcing (pseudo-inverse) receive filter, shape ``(Nt, Nr)``."""
    channel = np.asarray(channel)
    counter.add_real_mults(4 * channel.shape[1] ** 3)
    return np.linalg.pinv(channel)


def mmse_filter(
    channel: np.ndarray,
    noise_var: float,
    symbol_energy: float = 1.0,
    counter: FlopCounter = NULL_COUNTER,
) -> np.ndarray:
    """MMSE receive filter ``(H^H H + sigma^2/Es I)^-1 H^H``."""
    channel = np.asarray(channel)
    num_streams = channel.shape[1]
    gram = channel.conj().T @ channel
    regulariser = (noise_var / symbol_energy) * np.eye(num_streams)
    counter.add_real_mults(4 * num_streams**3)
    return np.linalg.solve(gram + regulariser, channel.conj().T)
