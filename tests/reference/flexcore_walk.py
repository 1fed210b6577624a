"""Frozen reference: FlexCore's complex level loop, one channel at a time.

This is the per-channel walk as it stood before the detector was
rebuilt around one plan-hoisted, split-real core — complex arithmetic in
unit-energy units, a ``kth_symbol_indices`` lookup per level, symbol 0
substituted on deactivated paths.  It is kept *as an oracle, not a
second implementation*: nothing under ``src/`` imports it, it is never
optimised, and the equivalence suite pins the production core to it —
equal decisions and counts, distances and LLRs to rounding.

Everything takes a production detector only for its configuration
(constellation, triangle LUT, ``llr_clip``) and a prepared
``FlexCoreContext`` for the channel.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import ints_to_bits


def exact_kth(constellation, effective, ranks):
    """Exhaustive k-th-closest symbol index (the ablation's lookup)."""
    distances = np.abs(effective[..., None] - constellation.points) ** 2
    order = np.argsort(distances, axis=-1)
    return np.take_along_axis(order, ranks[..., None] - 1, axis=-1)[..., 0]


def walk(detector, context, rotated, use_exact=False):
    """Every path of one channel: indices ``(n, P, Nt)`` in detection
    order, PEDs ``(n, P)`` and the alive mask ``(n, P)``."""
    constellation = detector.system.constellation
    points = constellation.points
    num_streams = detector.system.num_streams
    batch = rotated.shape[0]
    position_vectors = context.position_vectors
    paths = position_vectors.shape[0]
    r = context.qr.r

    symbols = np.zeros((batch, paths, num_streams), dtype=np.complex128)
    indices = np.zeros((batch, paths, num_streams), dtype=np.int64)
    ped = np.zeros((batch, paths))
    alive = np.ones((batch, paths), dtype=bool)
    for level in range(num_streams - 1, -1, -1):
        if level + 1 < num_streams:
            interference = symbols[:, :, level + 1 :] @ r[level, level + 1 :]
        else:
            interference = np.zeros((batch, paths))
        effective = (
            rotated[:, level][:, None] - interference
        ) / context.diag[level]
        ranks = np.broadcast_to(
            position_vectors[:, level][None, :], (batch, paths)
        )
        if use_exact:
            level_indices = exact_kth(constellation, effective, ranks)
        else:
            level_indices = detector.ordering.kth_symbol_indices(
                effective, ranks
            )
        dead = level_indices < 0
        alive &= ~dead
        safe = np.where(dead, 0, level_indices)
        symbols[:, :, level] = points[safe]
        indices[:, :, level] = safe
        ped += context.weights[level] * (
            np.abs(effective - symbols[:, :, level]) ** 2
        )
    return indices, ped, alive


def detect(detector, context, received):
    """Hard decisions ``(n, Nt)`` in original stream order, and the
    number of deactivated path evaluations."""
    rotated = context.qr.rotate_received(np.asarray(received))
    indices, ped, alive = walk(
        detector, context, rotated, detector.use_exact_ordering
    )
    ped[~alive] = np.inf
    best = np.argmin(ped, axis=1)
    chosen = np.take_along_axis(indices, best[:, None, None], axis=1)[:, 0, :]
    return context.qr.restore_order(chosen), int(np.count_nonzero(~alive))


def detect_soft(detector, context, received, noise_var):
    """Hard decisions, max-log LLRs ``(n, Nt * bits)`` (both in original
    stream order) and the number of clamped bits."""
    constellation = detector.system.constellation
    bits_per_symbol = constellation.bits_per_symbol
    bits_of_index = ints_to_bits(
        np.arange(constellation.order), bits_per_symbol
    ).reshape(constellation.order, bits_per_symbol)
    rotated = context.qr.rotate_received(np.asarray(received))
    # The candidate walk ignores the exact-ordering ablation.
    indices, ped, alive = walk(detector, context, rotated)
    ped[~alive] = np.inf
    batch, paths, num_streams = indices.shape

    best = np.argmin(ped, axis=1)
    hard = np.take_along_axis(indices, best[:, None, None], axis=1)[:, 0, :]
    candidate_bits = (
        bits_of_index[indices]
        .reshape(batch, paths, num_streams * bits_per_symbol)
        .astype(bool)
    )
    ped_expanded = ped[:, :, None]
    min_if_one = np.where(candidate_bits, ped_expanded, np.inf).min(axis=1)
    min_if_zero = np.where(~candidate_bits, ped_expanded, np.inf).min(axis=1)
    with np.errstate(invalid="ignore"):
        llrs = (min_if_one - min_if_zero) / noise_var
    missing_one = ~np.isfinite(min_if_one)
    missing_zero = ~np.isfinite(min_if_zero)
    llrs = np.where(missing_one, detector.llr_clip, llrs)
    llrs = np.where(missing_zero, -detector.llr_clip, llrs)
    llrs = np.clip(llrs, -detector.llr_clip, detector.llr_clip)
    clamped = int(np.count_nonzero(missing_one | missing_zero))

    grouped = llrs.reshape(batch, num_streams, bits_per_symbol)
    restored = np.empty_like(grouped)
    restored[:, context.qr.permutation, :] = grouped
    return (
        context.qr.restore_order(hard),
        restored.reshape(batch, num_streams * bits_per_symbol),
        clamped,
    )
