"""Soft-output FlexCore (the §7 "promising next step", implemented).

The paper's conclusion names extending FlexCore to soft detectors as
future work (citing [7, 43]).  The natural construction — used by every
list-based soft MIMO detector — falls out of FlexCore's architecture for
free: the ``N_PE`` evaluated tree paths form a candidate list, and
max-log LLRs come from comparing the best candidate metric under each
bit hypothesis:

    LLR_i = ( min_{s in E: bit_i(s)=1} ||y - Hs||^2
            - min_{s in E: bit_i(s)=0} ||y - Hs||^2 ) / sigma^2

Positive LLR favours bit 0, matching :mod:`repro.coding.viterbi`.  When a
hypothesis is absent from the list (all candidates agree on a bit) the
LLR clamps to ``+-llr_clip`` — the standard list-detector fallback.

The reduction is a sorted list, not a dense minimum.  Each frame's ``P``
PEDs are ranked once by a stable ``argsort`` and its candidates' symbol
indices are gathered into that order as bytes, paths last.  A symbol
index spelled in binary is its bit label, so the bit planes are a mask
away, and "the smallest PED among the candidates whose bit is 1" is "the
PED at the first 1 in ascending order": a bool ``argmax`` and ``argmin``
index straight into the sorted PEDs.  The head of the stable order is
the hard decision (the first-occurrence arg-min, as on the hard path); a
hypothesis is missing when its scan finds nothing or lands on a
deactivated — infinite, hence last-ranked — candidate.  Selection is
exact, and nothing float64 of shape ``(G, F, P, Nt * bits)`` is built.
The list rides the walk's tiles and lives in the walk's workspace
(:meth:`SoftFlexCoreDetector._list_layout`), so a warm soft block
allocates only its sort order and its ``(G, F, Nt * bits)`` outputs.

That is the portable lane (no compiler, and
:meth:`SoftFlexCoreDetector._candidate_list` on any lane) and the oracle.
On the walk's native lane the list never exists: ``detect_group`` reduces
each frame's ``P`` PEDs where it walked them — per level and bit, the
minimum under each hypothesis, taken over the PEDs' bit patterns, which
order as non-negative doubles do; the same missing-hypothesis rule, clip
and stream order — and writes only ``indices`` and ``llrs`` (:meth:`~repro.
flexcore.detector.FlexCoreDetector._decide`): the sorted list's
reduction, so the lanes' LLRs differ only as their distances do, by a few
ulp.  On the benchmark's ``soft_llr`` block that took a soft block
from 3.3 to 1.0 ms — from 4.0 to 1.8 hard blocks of the same plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import native
from repro.errors import ConfigurationError
from repro.flexcore.detector import (
    FlexCoreContext,
    FlexCoreDetector,
    WalkWorkspace,
)
from repro.utils.flops import NULL_COUNTER, FlopCounter
from repro.utils.xp import resolve_array_module


@dataclass
class SoftDetectionResult:
    """Hard decisions plus per-bit log-likelihood ratios.

    Attributes
    ----------
    indices:
        ``(n, Nt)`` hard symbol decisions (identical to the hard detector).
    llrs:
        ``(n, Nt * bits_per_symbol)`` max-log LLRs, stream-major: the
        first ``bits_per_symbol`` entries belong to stream 0.
    metadata:
        Diagnostics (clamped-bit counts, paths).
    """

    indices: np.ndarray
    llrs: np.ndarray
    metadata: dict = field(default_factory=dict)


class SoftFlexCoreDetector(FlexCoreDetector):
    """FlexCore with max-log soft output from its candidate list.

    Parameters
    ----------
    llr_clip:
        Magnitude assigned when a bit hypothesis has no candidate among
        the evaluated paths, and the saturation bound for all LLRs.  The
        default (4.0) keeps clamped bits from out-shouting genuinely
        measured ones — the usual small-list calibration; raising it
        degrades coded performance at low SNR (see the soft_gain
        experiment).
    """

    name = "soft-flexcore"

    def __init__(self, system, num_paths, llr_clip: float = 4.0, **kwargs):
        super().__init__(system, num_paths, **kwargs)
        if llr_clip <= 0:
            raise ConfigurationError("llr_clip must be positive")
        self.llr_clip = float(llr_clip)

    # ------------------------------------------------------------------
    def detect_soft_prepared(
        self,
        context: FlexCoreContext,
        received: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> SoftDetectionResult:
        """Soft detection over a prepared channel context."""
        received = self._check_received(received)
        xp = resolve_array_module(None)
        indices, llrs, clamped = self._detect_soft_group(
            self._plan([context], xp),
            received[None],
            noise_var,
            xp,
            counter,
            WalkWorkspace(),
        )
        return SoftDetectionResult(
            indices=indices[0],
            llrs=llrs[0],
            metadata={
                "paths": max(context.position_vectors.shape[0], 1),
                "clamped_bits": int(clamped[0]),
            },
        )

    def detect_soft(
        self,
        channel: np.ndarray,
        received: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> SoftDetectionResult:
        """Single-shot convenience: prepare then soft-detect."""
        context = self.prepare(channel, noise_var, counter=counter)
        return self.detect_soft_prepared(
            context, received, noise_var, counter=counter
        )

    def _candidate_list(
        self,
        context: FlexCoreContext,
        rotated: np.ndarray,
        counter: FlopCounter,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indices ``(n, P, Nt)`` and PEDs ``(n, P)`` of all paths of one
        channel (detection order; infinite PED marks a deactivated
        path) — the walk's candidate list, for diagnostics, from the
        portable level loop on either lane."""
        xp = resolve_array_module(None)
        plan = self._plan([context], xp)
        planes = plan.grid_planes(xp.asarray(rotated)[None])
        symbols, ped, _ = self._walk(planes, plan, xp, counter, False)
        return self._symbol_indices(symbols, xp)[0].swapaxes(1, 2), ped[0]

    # ------------------------------------------------------------------
    # Stacked tensor-walk soft kernel
    # ------------------------------------------------------------------
    def detect_soft_block_prepared(
        self,
        contexts,
        received: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
        xp=None,
        store=None,
        max_paths: "int | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray, list[dict]]":
        """Soft-detect a ``(S, F, Nr)`` block over prepared contexts.

        The stacked analogue of :meth:`detect_soft_prepared`: subcarriers
        sharing a path count walk as one ``(G, F, P)`` element tensor
        (the hard detector's core) and each frame's ``P`` candidates are
        ranked into one list that every bit scans.  The hard decisions
        *and* the LLRs are bit-identical to the per-subcarrier path.

        ``store``/``max_paths`` behave exactly as on
        :meth:`~repro.flexcore.detector.FlexCoreDetector.detect_block_prepared`:
        resident walk plans are reused device-side and the path budget
        slices them (a view, never an upload or a mutation of the cached
        contexts).

        Returns ``(indices, llrs, metadata)`` with shapes ``(S, F, Nt)``
        / ``(S, F, Nt * bits_per_symbol)``; each comes home in a single
        ``to_numpy``.
        """
        xp = resolve_array_module(xp)
        received = self._check_block_received(contexts, received)
        num_subcarriers, num_frames, _ = received.shape
        num_streams = self.system.num_streams
        width = num_streams * self.system.constellation.bits_per_symbol
        received_dev = xp.asarray(received)
        indices_dev = np.zeros(
            (num_subcarriers, num_frames, num_streams), dtype=np.int64
        )
        llrs_dev = np.zeros((num_subcarriers, num_frames, width), dtype=np.float64)
        metadata: list = [None] * num_subcarriers
        scratch = self._scratch(store)
        groups = self._group_by_paths(contexts, max_paths)
        for (_prepared, paths), members in groups.items():
            block_indices, block_llrs, clamped = self._detect_soft_group(
                self._plan([contexts[sc] for sc in members], xp, store, paths),
                received_dev[members],
                noise_var,
                xp,
                counter,
                scratch,
            )
            indices_dev[members] = block_indices
            llrs_dev[members] = block_llrs
            for j, sc in enumerate(members):
                metadata[sc] = {
                    "paths": max(paths, 1),
                    "clamped_bits": int(clamped[j]),
                }
        indices = np.asarray(xp.to_numpy(indices_dev), dtype=np.int64)
        llrs = np.asarray(xp.to_numpy(llrs_dev), dtype=np.float64)
        return indices, llrs, metadata

    def _detect_soft_group(
        self, plan, received, noise_var: float, xp, counter, scratch
    ) -> tuple:
        """Soft-detect one equal-path-count group: the hard path's walk,
        every candidate weighed — inside the fused call on the native
        lane, else tile by tile.  Returns device-side ``(G, F, Nt)``
        decisions and ``(G, F, Nt * bits)`` LLRs plus host per-subcarrier
        clamped-bit counts, downloaded once."""
        planes = plan.grid_planes(np.matmul(received, plan.q_conj))
        # The candidate walk ignores the exact-ordering ablation.
        if native.kernel() is not None:
            heads, soft, clamped = self._decide(
                plan, planes, xp, counter, scratch, noise_var, self.llr_clip
            )
            return heads, soft, np.asarray(xp.to_numpy(clamped), dtype=np.int64)
        group, frames, num_streams, _ = planes.shape
        bits = self.system.constellation.bits_per_symbol
        width = num_streams * bits
        heads = np.empty((group, frames, num_streams), dtype=np.int64)
        soft = np.empty((group, frames, width), dtype=np.float64)
        clamped = np.zeros((group,), dtype=np.int64)
        for rows, cols, symbols, ped, _ in self._walk_tiles(
            plan, planes, xp, counter, False, scratch, self._list_layout()
        ):
            heads[rows, cols], soft[rows, cols], missing = self._list_llrs(
                self._labels(symbols, xp, scratch), ped, noise_var, scratch
            )
            clamped[rows] += np.count_nonzero(missing, axis=(1, 2))
            counter.add_comparisons(math.prod(ped.shape) * width)
        by_stream = soft.reshape((group, frames, num_streams, bits))
        return (
            plan.restore_order(heads),
            plan.restore_order(by_stream).reshape(soft.shape),
            np.asarray(xp.to_numpy(clamped), dtype=np.int64),
        )

    def _list_layout(self) -> tuple:
        """What the candidate list holds per (subcarrier, frame, path)
        element on top of the walk (:func:`~repro.flexcore.detector.
        walk_layout`'s rows continued): a symbol index fits a byte up to
        256-QAM, and nothing is float64 per bit hypothesis.
        :meth:`_labels` carves the first three rows, :meth:`_list_llrs`
        the last four."""
        constellation = self.system.constellation
        num_streams = self.system.num_streams
        width = num_streams * constellation.bits_per_symbol
        narrow = "uint8" if constellation.order <= 256 else "int64"
        return (
            ("cells", "float64", num_streams),
            ("labels", narrow, num_streams),
            # Position-table cells, then the flat ranking gather.
            ("gather", "int64", num_streams),
            ("ranked", narrow, num_streams),
            ("masked", narrow, width),
            ("bits", "bool_", width),
        )

    def _labels(self, symbols, xp, scratch):
        """:meth:`_symbol_indices` of every walked point ``(G, F, 2 Nt,
        P)``, as ``(G, F, Nt, P)`` narrow integers in ``scratch``."""
        constellation = self.system.constellation
        group, frames, _, paths = symbols.shape
        cells, labels, gather = scratch.carve(
            self._list_layout()[:3], group, frames, paths
        )
        gather[...] = self._cells(symbols, out=cells)
        table = constellation.device_constant(
            xp, constellation.grid_index_table
        )
        return np.take(table.astype(labels.dtype), gather, out=labels, mode="clip")

    def _list_llrs(self, indices, ped, noise_var: float, scratch=None):
        """Max-log LLRs of a candidate list: symbol indices ``(G, F, Nt,
        P)`` with PEDs ``(G, F, P)``, infinite where deactivated.

        Returns the best candidate's indices ``(G, F, Nt)`` (the first
        occurrence of the minimum PED), the LLRs ``(G, F, Nt * bits)`` and
        the mask of clamped bits, all in detection order and all the
        caller's own; everything with a path axis lives in ``scratch``.
        """
        bits_per_symbol = self.system.constellation.bits_per_symbol
        group, frames, num_streams, paths = indices.shape
        if scratch is None:
            scratch = WalkWorkspace()
        gather, ranked, masked, bits = scratch.carve(
            self._list_layout()[2:], group, frames, paths
        )
        narrow = ranked.dtype
        if indices.dtype != narrow:
            indices = indices.astype(narrow)
        order = np.argsort(ped, axis=2, kind="stable")
        ranked_ped = np.take_along_axis(ped, order, axis=2)
        # One flat gather: row r of the (G F Nt, P) index matrix starts
        # at r * P, and every stream of a frame is ranked by one order.
        rows = np.arange(group * frames * num_streams) * paths
        np.add(
            order[:, :, None, :],
            rows.reshape(group, frames, num_streams, 1),
            out=gather,
        )
        np.take(indices, gather, out=ranked, mode="clip")
        # A symbol index spelled in binary is its bit label, MSB first:
        # (G, F, Nt, bits, P) bit planes, ascending PED along the last
        # axis, so a hypothesis' minimum is at its first occurrence.
        masks = 2 ** (bits_per_symbol - 1 - np.arange(bits_per_symbol))
        planes = (group, frames, num_streams, bits_per_symbol, paths)
        masked, bits = masked.reshape(planes), bits.reshape(planes)
        np.bitwise_and(ranked[:, :, :, None, :], masks.astype(narrow)[:, None], out=masked)
        np.not_equal(masked, 0, out=bits)

        first_one = np.argmax(bits, axis=4).reshape(group, frames, -1)
        first_zero = np.argmin(bits, axis=4).reshape(group, frames, -1)
        ped_one = np.take_along_axis(ranked_ped, first_one, axis=2)
        ped_zero = np.take_along_axis(ranked_ped, first_zero, axis=2)
        # A scan that finds nothing also answers 0: only the head's own
        # bit tells "first" from "nowhere".  Deactivated candidates sort
        # last, so a hit with an infinite PED is no hit either.
        head_bit = bits[..., 0].reshape(group, frames, -1)
        missing_one = ~np.isfinite(ped_one) | ((first_one == 0) & ~head_bit)
        missing_zero = ~np.isfinite(ped_zero) | ((first_zero == 0) & head_bit)
        llrs = (ped_one - ped_zero) / noise_var
        llrs = np.where(missing_one, self.llr_clip, llrs)
        llrs = np.where(missing_zero, -self.llr_clip, llrs)
        return (
            ranked[..., 0].astype(np.int64),
            np.clip(llrs, -self.llr_clip, self.llr_clip),
            missing_one | missing_zero,
        )
