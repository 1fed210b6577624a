"""Frozen reference: the dense max-log LLR reduction.

This is the soft detector's reduction as it stood before it was rebuilt
around one PED-sorted candidate list — every candidate's bits gathered
into a ``(G, F, P, Nt * bits)`` tensor, the PEDs broadcast against it
through ``where(bits, ped, inf)`` once per hypothesis, and a ``min``
over the path axis.  It is kept *as an oracle, not a second
implementation*: nothing under ``src/`` imports it, it is never
optimised, and the soft suite pins the production list to it —
bit-for-bit, because both select one of the same PEDs and then do the
same subtraction and division.

:func:`list_llrs` is the reduction alone, on any candidate list;
:func:`detect_soft_block` feeds it the production plan and walk (pinned
elsewhere, see ``flexcore_walk.py``) one subcarrier at a time and whole,
so stacking and chunking are the production path's to get right.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import ints_to_bits
from repro.utils.flops import NULL_COUNTER
from repro.utils.xp import resolve_array_module

NUMPY = resolve_array_module("numpy")


def list_llrs(constellation, indices, ped, noise_var, llr_clip):
    """Symbol indices ``(G, F, Nt, P)`` and PEDs ``(G, F, P)`` (infinite
    where deactivated) to the arg-min candidate ``(G, F, Nt)``, LLRs
    ``(G, F, Nt * bits)`` and the clamped-bit mask, detection order."""
    bits_per_symbol = constellation.bits_per_symbol
    bits_of_index = (
        ints_to_bits(np.arange(constellation.order), bits_per_symbol)
        .reshape(constellation.order, bits_per_symbol)
        .astype(bool)
    )
    group, frames, _, paths = indices.shape
    best = np.argmin(ped, axis=2)
    head = np.take_along_axis(indices, best[:, :, None, None], axis=3)[..., 0]
    candidate_bits = bits_of_index[indices.swapaxes(2, 3)].reshape(
        group, frames, paths, -1
    )
    ped_expanded = ped[:, :, :, None]
    min_if_one = np.min(np.where(candidate_bits, ped_expanded, np.inf), axis=2)
    min_if_zero = np.min(np.where(candidate_bits, np.inf, ped_expanded), axis=2)
    with np.errstate(invalid="ignore"):
        llrs = (min_if_one - min_if_zero) / noise_var
    missing_one = ~np.isfinite(min_if_one)
    missing_zero = ~np.isfinite(min_if_zero)
    llrs = np.where(missing_one, llr_clip, llrs)
    llrs = np.where(missing_zero, -llr_clip, llrs)
    llrs = np.clip(llrs, -llr_clip, llr_clip)
    return head, llrs, missing_one | missing_zero


def detect_soft_block(detector, contexts, received, noise_var, max_paths=None):
    """Hard decisions ``(S, F, Nt)``, LLRs ``(S, F, Nt * bits)`` (both in
    original stream order) and per-subcarrier clamped-bit counts."""
    constellation = detector.system.constellation
    hard, soft, clamped = [], [], []
    for sc, context in enumerate(contexts):
        ((_, _, plan),) = detector._plans([context], NUMPY, None, max_paths)
        planes = plan.grid_planes(np.matmul(received[sc : sc + 1], plan.q_conj))
        # The candidate walk ignores the exact-ordering ablation.
        symbols, ped, _ = detector._walk(planes, plan, NUMPY, NULL_COUNTER, False)
        head, llrs, missing = list_llrs(
            constellation,
            detector._symbol_indices(symbols, NUMPY),
            ped,
            noise_var,
            detector.llr_clip,
        )
        by_stream = llrs.reshape(llrs.shape[:2] + (detector.system.num_streams, -1))
        hard.append(plan.restore_order(head)[0])
        soft.append(plan.restore_order(by_stream).reshape(llrs.shape)[0])
        clamped.append(int(np.count_nonzero(missing)))
    return np.stack(hard), np.stack(soft), clamped
