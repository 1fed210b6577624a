"""Square M-QAM constellations.

The constellation is the alphabet ``Q`` of the paper: each transmit antenna
sends one point of a ``|Q|``-ary square QAM grid (4-, 16-, 64-, 256-QAM).

Geometry conventions
--------------------
* In *grid units* the points sit on the odd-integer lattice
  ``{±1, ±3, …, ±(m−1)}²`` with ``m = sqrt(|Q|)``; the minimum inter-symbol
  distance is 2.
* Points returned to callers are scaled by ``1/sqrt(2(m²−1)/3)`` so the
  average symbol energy ``Es`` is exactly 1, which is what the probability
  model of Eq. (4) assumes.
* Bit labelling is per-axis Gray: the first half of a symbol's bits select
  the in-phase level, the second half the quadrature level, so nearest
  neighbours differ in exactly one bit.

FlexCore's triangle look-up table (``repro.flexcore.ordering``) works in
grid units, which keeps all of its arithmetic on small integers.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import bits_to_ints, gray_encode, ints_to_bits
from repro.utils.validation import check_square_qam_order
from repro.utils.xp import DeviceConstantCache, resolve_array_module


class QamConstellation:
    """A Gray-labelled square QAM constellation with unit average energy.

    Parameters
    ----------
    order:
        Constellation size ``|Q|``; must be an even power of two (4, 16,
        64, 256, ...).

    Attributes
    ----------
    order: int
        ``|Q|``.
    side: int
        ``m = sqrt(|Q|)`` levels per axis.
    bits_per_symbol: int
        ``log2 |Q|``.
    scale: float
        Multiplicative factor from grid units to unit-energy units.
    points: numpy.ndarray
        Complex array of shape ``(order,)``; ``points[k]`` is the symbol
        whose Gray-labelled index is ``k``.
    grid_points: numpy.ndarray
        ``(2, order)`` float array: the odd-integer grid coordinates
        ``(u, v)`` of ``points[k]`` — ``points`` before scaling, exact.
    grid_index_table: numpy.ndarray
        ``(side, side)`` table of symbol indices by axis position:
        ``grid_index_table[(u + m - 1) / 2, (v + m - 1) / 2]`` is
        :meth:`grid_to_index` of ``(u, v)``, tabulated once.
    """

    def __init__(self, order: int):
        check_square_qam_order(order)
        self.order = int(order)
        self.side = int(round(np.sqrt(order)))
        self.bits_per_symbol = int(round(np.log2(order)))
        self._axis_bits = self.bits_per_symbol // 2
        # Unit-energy normalisation: E[|s|^2] over the odd-integer grid is
        # 2(m^2-1)/3.
        self.scale = float(1.0 / np.sqrt(2.0 * (self.side**2 - 1) / 3.0))
        self._levels_grid = np.arange(-(self.side - 1), self.side, 2, dtype=np.int64)
        # Natural axis position i in [0, m) <-> Gray label g.
        positions = np.arange(self.side)
        self._gray_of_position = np.asarray(gray_encode(positions))
        self._position_of_gray = np.empty(self.side, dtype=np.int64)
        self._position_of_gray[self._gray_of_position] = positions
        # Device copies of the immutable tables below, one upload per
        # array module (see DeviceConstantCache) — the detection kernels'
        # warm path re-uploads nothing.
        self._device_tables = DeviceConstantCache()
        i_axis, q_axis = self.index_to_grid(np.arange(self.order))
        self.grid_points = np.stack([i_axis, q_axis]).astype(np.float64)
        self.points = (i_axis + 1j * q_axis) * self.scale
        # grid_to_index is the one definition of the Gray map; the table
        # is that function evaluated at every in-constellation position.
        self.grid_index_table = self.grid_to_index(
            self._levels_grid[:, None], self._levels_grid[None, :]
        )

    def device_constant(self, xp, host: np.ndarray) -> "np.ndarray":
        """``host`` (one of this constellation's tables) on module ``xp``.

        Uploaded on first use per module, then served from a
        :class:`~repro.utils.xp.DeviceConstantCache`.
        """
        return self._device_tables.get(xp, host)

    def device_points(self, xp=None) -> "np.ndarray":
        """:attr:`points` on module ``xp`` (memoized; numpy passes through)."""
        return self.device_constant(resolve_array_module(xp), self.points)

    # ------------------------------------------------------------------
    # Index <-> grid-coordinate conversions
    # ------------------------------------------------------------------
    def index_to_grid(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map symbol indices to odd-integer grid coordinates ``(u, v)``."""
        indices = np.asarray(indices)
        gray_i = indices >> self._axis_bits
        gray_q = indices & (self.side - 1)
        pos_i = self._position_of_gray[gray_i]
        pos_q = self._position_of_gray[gray_q]
        return self._levels_grid[pos_i], self._levels_grid[pos_q]

    def grid_to_index(self, u: np.ndarray, v: np.ndarray, xp=None) -> np.ndarray:
        """Map odd-integer grid coordinates to symbol indices.

        Coordinates outside the constellation map to ``-1`` (FlexCore's
        "deactivated" marker).  ``u`` / ``v`` may have any shape; ``xp``
        selects the array module the lookup runs on (numpy default — see
        :mod:`repro.utils.xp`), so detection kernels can keep the whole
        index computation on their device.
        """
        xp = resolve_array_module(xp)
        # ensure(): inputs from the detection kernels already live on the
        # module — this is dtype normalisation, not a host→device upload.
        u = xp.ensure(u, dtype=xp.int64)
        v = xp.ensure(v, dtype=xp.int64)
        pos_i = (u + self.side - 1) >> 1
        pos_q = (v + self.side - 1) >> 1
        valid = (
            (xp.abs(u) % 2 == 1)
            & (xp.abs(v) % 2 == 1)
            & (pos_i >= 0)
            & (pos_i < self.side)
            & (pos_q >= 0)
            & (pos_q < self.side)
        )
        pos_i = xp.clip(pos_i, 0, self.side - 1)
        pos_q = xp.clip(pos_q, 0, self.side - 1)
        gray_table = self.device_constant(xp, self._gray_of_position)
        gray_i = gray_table[pos_i]
        gray_q = gray_table[pos_q]
        index = (gray_i << self._axis_bits) | gray_q
        return xp.where(valid, index, -1)

    # ------------------------------------------------------------------
    # Bit mapping
    # ------------------------------------------------------------------
    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        """Group a bit vector into symbol indices (MSB-first per symbol)."""
        return bits_to_ints(bits, self.bits_per_symbol)

    def indices_to_bits(self, indices: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`bits_to_indices`."""
        return ints_to_bits(np.asarray(indices).reshape(-1), self.bits_per_symbol)

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map bits directly to unit-energy complex symbols."""
        return self.points[self.bits_to_indices(bits)]

    # ------------------------------------------------------------------
    # Slicing (nearest-symbol quantisation)
    # ------------------------------------------------------------------
    def slice_to_grid(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantise complex samples to the nearest odd-integer grid point.

        The result is clamped into the constellation, so it always names a
        valid symbol.  Works in unit-energy units (divides by ``scale``).
        """
        received = np.asarray(received) / self.scale
        u = self._quantise_axis(received.real)
        v = self._quantise_axis(received.imag)
        return u, v

    def _quantise_axis(self, values: np.ndarray) -> np.ndarray:
        # Nearest odd integer (2*floor(x/2) + 1), clamped to [-(m-1), m-1].
        nearest = 2 * np.floor(np.asarray(values) / 2.0).astype(np.int64) + 1
        return np.clip(nearest, -(self.side - 1), self.side - 1)

    def slice_to_index(self, received: np.ndarray) -> np.ndarray:
        """Return the index of the nearest constellation point."""
        u, v = self.slice_to_grid(received)
        index = self.grid_to_index(u, v)
        # Clamped grid points are always valid symbols.
        return index

    def slice(self, received: np.ndarray) -> np.ndarray:
        """Return the nearest constellation point itself."""
        return self.points[self.slice_to_index(received)]

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    @property
    def min_distance(self) -> float:
        """Minimum inter-symbol distance in unit-energy units."""
        return 2.0 * self.scale

    def exact_order(self, received: complex) -> np.ndarray:
        """Indices of all points sorted by ascending distance to ``received``.

        Exhaustive (``O(|Q| log |Q|)``); used as the ground truth the
        FlexCore triangle LUT is validated against, and by detectors that
        need exact per-level sorting.
        """
        distances = np.abs(self.points - received)
        return np.argsort(distances, kind="stable")

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"QamConstellation(order={self.order})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QamConstellation) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("QamConstellation", self.order))
