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

Since the per-path Euclidean distances are already computed by the hard
detector, soft output costs only the bit-wise minima — preserving the
embarrassing parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.flexcore.detector import (
    FlexCoreContext,
    FlexCoreDetector,
    frames_per_chunk,
)
from repro.utils.bits import ints_to_bits
from repro.utils.flops import NULL_COUNTER, FlopCounter
from repro.utils.xp import DeviceConstantCache, resolve_array_module


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
        constellation = system.constellation
        bits_of_index = ints_to_bits(
            np.arange(constellation.order), constellation.bits_per_symbol
        ).reshape(constellation.order, constellation.bits_per_symbol)
        # bits_of_cell[c, b]: the b-th bit of the symbol at grid cell c
        # (see FlexCoreDetector._grid_cells), so a candidate's bits are
        # one lookup away from its walked coordinates.
        self._bits_of_cell = bits_of_index[
            constellation.grid_index_table.reshape(-1)
        ].astype(bool)
        # One device copy of the bit table per array module.
        self._device_tables = DeviceConstantCache()

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
        indices, llrs, clamped = self._detect_soft_group(
            [context],
            received[None],
            noise_var,
            resolve_array_module(None),
            counter,
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
        path) — the walk's candidate list, for diagnostics."""
        xp = resolve_array_module(None)
        plan = self._plan([context], xp)
        planes = plan.grid_planes(xp.asarray(rotated)[None], xp)
        symbols, ped, _ = self._walk(planes, plan, xp, counter, False)
        cells = self._grid_cells(symbols, xp)
        return self._cell_indices(cells, xp)[0].swapaxes(1, 2), ped[0]

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
        (the hard detector's core) and the bit-wise LLR minima reduce
        over the path axis.  Under numpy the hard decisions *and* the
        LLRs are bit-identical to the per-subcarrier path.

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
        indices_dev = xp.zeros(
            (num_subcarriers, num_frames, num_streams), dtype=xp.int64
        )
        llrs_dev = xp.zeros(
            (num_subcarriers, num_frames, width), dtype=xp.float64
        )
        metadata: list = [None] * num_subcarriers
        groups = self._group_by_paths(contexts, max_paths)
        for (_prepared, paths), members in groups.items():
            block_indices, block_llrs, clamped = self._detect_soft_group(
                [contexts[sc] for sc in members],
                received_dev[members],
                noise_var,
                xp,
                counter,
                store=store,
                max_paths=paths,
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
        self,
        contexts,
        received,
        noise_var: float,
        xp,
        counter: FlopCounter,
        store=None,
        max_paths: "int | None" = None,
    ) -> tuple:
        """Soft-detect one equal-path-count group: the hard path's walk,
        keeping every candidate.  Returns device-side ``(G, F, Nt)``
        decisions and ``(G, F, Nt * bits)`` LLRs plus host per-subcarrier
        clamped-bit counts, downloaded once."""
        plan = self._plan(contexts, xp, store, max_paths)
        planes = plan.grid_planes(xp.matmul(received, plan.q_conj), xp)
        group, frames, num_streams, _ = planes.shape
        paths = plan.paths
        bits_per_symbol = self.system.constellation.bits_per_symbol
        width = num_streams * bits_per_symbol
        bits_table = self._device_tables.get(xp, self._bits_of_cell)
        chunk = frames_per_chunk(group, paths, num_streams, extra=2 * width)
        hard_pieces = []
        llr_pieces = []
        clamped = 0
        for start in range(0, frames, chunk):
            # The candidate walk ignores the exact-ordering ablation.
            symbols, ped, _ = self._walk(
                planes[:, start : start + chunk], plan, xp, counter, False
            )
            cells = self._grid_cells(symbols, xp)
            hard_pieces.append(self._winner(cells, ped, xp))
            # candidate_bits: (G, Fc, P, Nt * bps), so the minima over P
            # run across long contiguous rows.
            candidate_bits = bits_table[cells.swapaxes(2, 3)].reshape(
                group, -1, paths, width
            )
            ped_expanded = ped[:, :, :, None]
            min_if_one = xp.amin(
                xp.where(candidate_bits, ped_expanded, xp.inf), axis=2
            )
            min_if_zero = xp.amin(
                xp.where(candidate_bits, xp.inf, ped_expanded), axis=2
            )
            with np.errstate(invalid="ignore"):
                block_llrs = (min_if_one - min_if_zero) / noise_var
            missing_one = ~xp.isfinite(min_if_one)
            missing_zero = ~xp.isfinite(min_if_zero)
            block_llrs = xp.where(missing_one, self.llr_clip, block_llrs)
            block_llrs = xp.where(missing_zero, -self.llr_clip, block_llrs)
            block_llrs = xp.clip(block_llrs, -self.llr_clip, self.llr_clip)
            llr_pieces.append(block_llrs)
            clamped = clamped + xp.count_nonzero(
                missing_one | missing_zero, axis=(1, 2)
            )
            counter.add_comparisons(
                group * ped.shape[1] * paths * width
            )
        hard = self._cell_indices(xp.concatenate(hard_pieces, axis=1), xp)
        soft = xp.concatenate(llr_pieces, axis=1).reshape(
            group, frames, num_streams, bits_per_symbol
        )
        return (
            plan.restore_order(hard, xp),
            plan.restore_order(soft, xp).reshape(group, frames, width),
            np.asarray(xp.to_numpy(clamped), dtype=np.int64),
        )
