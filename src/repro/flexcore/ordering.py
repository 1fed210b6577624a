"""The triangle look-up table: k-th nearest symbol without sorting (§3.2).

Finding the node with the ``k``-th smallest Euclidean distance at a tree
level normally costs ``|Q|`` distance evaluations plus a sort.  FlexCore
replaces this with an offline-computed *approximate predefined order*
exploiting QAM symmetry (Fig. 6):

* The effective received point is quantised to the *detection square* — a
  square of side ``d_min`` whose corners are the four nearest
  constellation points.  (In the odd-integer grid units of
  :class:`~repro.modulation.QamConstellation` the square centre is the
  nearest even-integer point; we clamp it so all four corners are real
  symbols, which keeps rank 1 always valid.)
* The square is split into eight triangles.  For the *canonical* triangle
  ``t1`` (0 <= dy <= dx) the order of all grid offsets is computed
  offline; every other triangle's order follows by the dihedral (D4)
  symmetry of the square — reflections and the diagonal swap — which is
  the paper's "circular shift" of a single stored triangle.
* At detection time the k-th candidate is ``centre +
  transform(offsets[k-1])``.  If that lands outside the constellation the
  processing element is *deactivated* (the path reports an infinite
  distance), exactly as §3.2 prescribes.

Offline order computation: the default ranks offsets by their mean squared
distance to a point uniform in ``t1`` — analytically equal to the distance
to the triangle centroid up to a constant, and a deterministic stand-in
for the paper's Monte-Carlo "most frequent sorted order".  A Monte-Carlo
(Borda-count) mode is provided and compared in the tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.modulation.constellation import QamConstellation
from repro.utils.rng import as_rng
from repro.utils.xp import DeviceConstantCache, resolve_array_module

#: Centroid of the canonical triangle with vertices (0,0), (1,0), (1,1).
_T1_CENTROID = (2.0 / 3.0, 1.0 / 3.0)


class TriangleOrdering:
    """Precomputed approximate symbol ordering for one constellation.

    Parameters
    ----------
    constellation:
        The QAM alphabet.
    method:
        ``"centroid"`` (deterministic, default) or ``"montecarlo"``
        (Borda count over sampled points, closer to the paper's text).
    samples:
        Monte-Carlo sample count (``method="montecarlo"`` only).
    rng:
        Seed/generator for the Monte-Carlo mode.
    """

    def __init__(
        self,
        constellation: QamConstellation,
        method: str = "centroid",
        samples: int = 20000,
        rng=None,
    ):
        if method not in ("centroid", "montecarlo"):
            raise ConfigurationError(f"unknown ordering method {method!r}")
        self.constellation = constellation
        self.method = method
        side = constellation.side
        # Largest centre-to-symbol offset after clamping: |centre| <= m-2,
        # |symbol| <= m-1, so offsets are odd integers within +/-(2m-3).
        reach = max(2 * side - 3, 1)
        odd = np.arange(-reach, reach + 1, 2, dtype=np.int64)
        du, dv = np.meshgrid(odd, odd, indexing="ij")
        offsets = np.stack([du.reshape(-1), dv.reshape(-1)], axis=1)
        if method == "centroid":
            scores = self._centroid_scores(offsets)
        else:
            scores = self._montecarlo_scores(offsets, samples, as_rng(rng))
        # Deterministic tie-break on the offset coordinates.
        order = np.lexsort((offsets[:, 1], offsets[:, 0], scores))
        self.offsets = offsets[order]
        self.max_rank = self.offsets.shape[0]
        # The walk's copy of the LUT: the smallest integer type that
        # holds an offset difference, plus one sentinel row for ranks
        # outside 1..max_rank.  ``reach + 2`` is odd like every offset
        # and lands outside the constellation from any clamped centre in
        # either orientation, so a bad rank deactivates its processing
        # element by the walk's ordinary "left the constellation" test.
        sentinel = reach + 2
        self._walk_offsets = np.concatenate(
            [self.offsets, [[sentinel, sentinel]]]
        ).astype(np.min_scalar_type(-2 * sentinel))
        # One device copy of each LUT per array module.
        self._device_tables = DeviceConstantCache()

    @staticmethod
    def _centroid_scores(offsets: np.ndarray) -> np.ndarray:
        cx, cy = _T1_CENTROID
        return (offsets[:, 0] - cx) ** 2 + (offsets[:, 1] - cy) ** 2

    @staticmethod
    def _montecarlo_scores(
        offsets: np.ndarray, samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Borda count: mean rank of each offset over sampled points."""
        # Uniform samples in t1 via rejection from the unit square half.
        x = rng.uniform(0.0, 1.0, size=2 * samples)
        y = rng.uniform(0.0, 1.0, size=2 * samples)
        keep = y <= x
        x, y = x[keep][:samples], y[keep][:samples]
        rank_sum = np.zeros(offsets.shape[0])
        chunk = 512
        for start in range(0, x.size, chunk):
            dx = offsets[:, 0][None, :] - x[start : start + chunk][:, None]
            dy = offsets[:, 1][None, :] - y[start : start + chunk][:, None]
            distance = dx**2 + dy**2
            ranks = np.argsort(np.argsort(distance, axis=1), axis=1)
            rank_sum += ranks.sum(axis=0)
        return rank_sum

    # ------------------------------------------------------------------
    def kth_symbol_indices(
        self, effective: np.ndarray, ranks: np.ndarray, xp=None
    ) -> np.ndarray:
        """Vectorised k-th-closest lookup.

        Parameters
        ----------
        effective:
            Complex effective received points (any shape, any number of
            dimensions — the stacked runtime feeds ``(S, F, P)`` tensors),
            in the constellation's unit-energy units.
        ranks:
            Same-shape integer array of 1-based ranks.
        xp:
            Array module the lookup runs on (see :mod:`repro.utils.xp`);
            numpy by default, in which case the arithmetic is identical
            to plain numpy code.

        Returns
        -------
        Same-shape integer array of symbol indices, with ``-1`` marking
        deactivated lookups (k-th candidate outside the constellation).
        """
        xp = resolve_array_module(xp)
        constellation = self.constellation
        side = constellation.side
        z = xp.ensure(effective) / constellation.scale
        zr, zi = xp.real(z), xp.imag(z)

        clamp = max(side - 2, 0)
        centre_u = xp.clip(
            2 * xp.astype(xp.round(zr / 2.0), xp.int64), -clamp, clamp
        )
        centre_v = xp.clip(
            2 * xp.astype(xp.round(zi / 2.0), xp.int64), -clamp, clamp
        )

        dx = zr - centre_u
        dy = zi - centre_v
        sign_x = xp.where(dx >= 0, 1, -1)
        sign_y = xp.where(dy >= 0, 1, -1)
        swap = xp.abs(dy) > xp.abs(dx)

        ranks = xp.ensure(ranks)
        valid_rank = (ranks >= 1) & (ranks <= self.max_rank)
        safe = xp.where(valid_rank, ranks, 1) - 1
        # (..., 2) canonical offsets from the per-module device LUT.
        base = self._device_tables.get(xp, self.offsets)[safe]
        du = xp.where(swap, base[..., 1], base[..., 0])
        dv = xp.where(swap, base[..., 0], base[..., 1])
        u = centre_u + sign_x * du
        v = centre_v + sign_y * dv
        indices = constellation.grid_to_index(u, v, xp=xp)
        return xp.where(valid_rank, indices, -1)

    def path_offsets(self, ranks, xp) -> tuple:
        """Triangle offsets of 1-based ``ranks``, as the walk applies them.

        The frame-independent half of :meth:`kth_symbol_indices`, for
        the walk plan: ``ranks`` is a ``(..., P)`` position tensor
        already on ``xp``; the result is two ``(..., 2, P)``
        small-integer tensors — the canonical ``(du, dv)`` and what the
        diagonal swap adds to it, ``(dv - du, du - dv)``.  Ranks outside
        ``1..max_rank`` get the sentinel offset (see ``__init__``),
        which always deactivates.
        """
        table = self._device_tables.get(xp, self._walk_offsets)
        valid = (ranks >= 1) & (ranks <= self.max_rank)
        rows = xp.where(valid, ranks - 1, self.max_rank)
        du, dv = table[:, 0][rows], table[:, 1][rows]
        return (
            xp.stack([du, dv], axis=-2),
            xp.stack([dv - du, du - dv], axis=-2),
        )

    def order_for_point(self, effective: complex) -> np.ndarray:
        """Full approximate order of symbol indices for one point.

        Deactivated entries are dropped; mainly for tests and diagnostics.
        """
        ranks = np.arange(1, self.max_rank + 1)
        point = np.full(ranks.shape, effective, dtype=np.complex128)
        indices = self.kth_symbol_indices(point, ranks)
        return indices[indices >= 0]
