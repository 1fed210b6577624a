"""FlexCore's path-probability model (Eqs. 2-4 and Appendix A).

The model answers, *before any signal arrives*: for each tree level ``l``,
what is the probability that the transmitted symbol is the ``k``-th
closest constellation point to the effective received point?  Appendix A
derives the geometric form

    P_l(k) = (1 - Pe(l)) * Pe(l)^(k-1)                        (Eq. 11/3)

and the probability of a whole position vector ``p`` factorises as

    Pc(p) ~= prod_l P_l(p(l))                                  (Eq. 2)

Per-level error probability
---------------------------
Eq. (4) of the paper gives ``Pe(l) = (2 + 2/sqrt(|Q|)) * erfc(|R(l,l)|
sqrt(Es) / sigma)``.  Two constants in that expression cannot be right as
printed: the prefactor exceeds 2 (a probability bound violation — the
standard QAM symbol-error prefactor is ``2 - 2/sqrt(|Q|)``) and the erfc
argument omits the half-minimum-distance of the constellation, without
which the formula is inconsistent across QAM orders.  This module
implements the *corrected* nearest-neighbour error probability

    p_axis = (1 - 1/sqrt(|Q|)) * erfc(|R(l,l)| * d/2 * sqrt(Es) / sigma)
    Pe(l)  = 1 - (1 - p_axis)^2

(`d/2` is the half inter-symbol distance of the unit-energy grid), which
reduces to the textbook QAM SER and — as the Fig. 14 reproduction shows —
matches Monte-Carlo rank statistics closely at both low and high SNR.
``pe_paper_literal`` keeps the verbatim Eq. (4) for comparison.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from repro.errors import ConfigurationError, DimensionError
from repro.modulation.constellation import QamConstellation

#: Numerical floor/ceiling keeping the geometric model well defined.
_PE_MIN = 1e-300
_PE_MAX = 1.0 - 1e-12


def pe_corrected(
    r_diag_abs: np.ndarray,
    noise_var: float,
    constellation: QamConstellation,
    symbol_energy: float = 1.0,
) -> np.ndarray:
    """Per-level probability that the sent symbol is *not* the nearest.

    ``r_diag_abs`` holds ``|R(l,l)|`` per level; broadcastable.
    """
    if noise_var <= 0:
        raise ConfigurationError("noise variance must be positive")
    r_diag_abs = np.abs(np.asarray(r_diag_abs, dtype=np.float64))
    half_distance = constellation.min_distance / 2.0
    argument = (
        r_diag_abs * half_distance * np.sqrt(symbol_energy) / np.sqrt(noise_var)
    )
    p_axis = (1.0 - 1.0 / constellation.side) * erfc(argument)
    pe = 1.0 - (1.0 - p_axis) ** 2
    return np.clip(pe, _PE_MIN, _PE_MAX)


def pe_paper_literal(
    r_diag_abs: np.ndarray,
    noise_var: float,
    constellation: QamConstellation,
    symbol_energy: float = 1.0,
) -> np.ndarray:
    """Verbatim Eq. (4), clipped into (0, 1) to stay usable."""
    if noise_var <= 0:
        raise ConfigurationError("noise variance must be positive")
    r_diag_abs = np.abs(np.asarray(r_diag_abs, dtype=np.float64))
    argument = r_diag_abs * np.sqrt(symbol_energy) / np.sqrt(noise_var)
    pe = (2.0 + 2.0 / np.sqrt(constellation.order)) * erfc(argument)
    return np.clip(pe, _PE_MIN, _PE_MAX)


def rank_probability(pe: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """``P_l(k) = (1 - Pe) Pe^(k-1)`` (Eq. 3 / Eq. 11); ``rank`` is 1-based."""
    pe = np.asarray(pe, dtype=np.float64)
    rank = np.asarray(rank)
    if (np.asarray(rank) < 1).any():
        raise DimensionError("ranks are 1-based")
    return (1.0 - pe) * pe ** (rank - 1)


@dataclass(frozen=True)
class LevelErrorModel:
    """Bundles the per-level ``Pe`` values for one channel realisation.

    ``pe[i]`` corresponds to R's row ``i`` (tree level ``i + 1``); the
    same indexing as position vectors throughout the package.
    """

    pe: np.ndarray

    @classmethod
    def from_channel(
        cls,
        r_matrix: np.ndarray,
        noise_var: float,
        constellation: QamConstellation,
        symbol_energy: float = 1.0,
        formula: str = "corrected",
    ) -> "LevelErrorModel":
        """Build from an upper-triangular ``R`` (or its diagonal): row 0
        of :meth:`from_channels` on a one-channel block."""
        return cls.from_channels(
            np.asarray(r_matrix)[None], noise_var, constellation, symbol_energy, formula
        )[0]

    @classmethod
    def from_channels(
        cls,
        r_stack: np.ndarray,
        noise_var: float,
        constellation: QamConstellation,
        symbol_energy: float = 1.0,
        formula: str = "corrected",
    ) -> "ErrorModelBlock":
        """The models of a coherence block, in one elementwise call.

        ``r_stack`` is a ``(C, Nt, Nt)`` stack of upper-triangular ``R``
        matrices or a ``(C, Nt)`` stack of their diagonals — the shape
        the stacked QR factorisations hand over.
        """
        r_stack = np.asarray(r_stack)
        if r_stack.ndim == 3:
            diags = np.diagonal(r_stack, axis1=1, axis2=2)
        elif r_stack.ndim == 2:
            diags = r_stack
        else:
            raise DimensionError(
                f"from_channels wants (C, Nt, Nt) R matrices or (C, Nt) "
                f"diagonals, got {r_stack.shape}"
            )
        if formula == "corrected":
            pe = pe_corrected(
                np.abs(diags), noise_var, constellation, symbol_energy
            )
        elif formula == "paper":
            pe = pe_paper_literal(
                np.abs(diags), noise_var, constellation, symbol_energy
            )
        else:
            raise ConfigurationError(f"unknown Pe formula {formula!r}")
        return ErrorModelBlock(pe=np.ascontiguousarray(pe, dtype=np.float64))

    @property
    def num_levels(self) -> int:
        return self.pe.size

    def path_probability(self, position_vector: np.ndarray) -> float:
        """``Pc(p)`` for one position vector (Eq. 2)."""
        position_vector = np.asarray(position_vector)
        if position_vector.size != self.num_levels:
            raise DimensionError("position vector length mismatch")
        return float(np.prod(rank_probability(self.pe, position_vector)))

    def path_probabilities(self, position_vectors: np.ndarray) -> np.ndarray:
        """Vectorised ``Pc`` for a ``(P, Nt)`` stack of position vectors."""
        position_vectors = np.asarray(position_vectors)
        if position_vectors.ndim != 2 or position_vectors.shape[1] != self.num_levels:
            raise DimensionError("expected (P, Nt) position vectors")
        return np.prod(
            rank_probability(self.pe[None, :], position_vectors), axis=1
        )

    def rank_distribution(self, level: int, max_rank: int) -> np.ndarray:
        """``P_l(k)`` for ``k = 1..max_rank`` at 0-based ``level`` (Fig. 14)."""
        ranks = np.arange(1, max_rank + 1)
        return rank_probability(self.pe[level], ranks)


@dataclass(frozen=True, eq=False)
class ErrorModelBlock(Sequence):
    """The models of ``C`` channels: ``pe`` ``(C, Nt)``.  Row ``c`` is
    channel ``c``'s :class:`LevelErrorModel`, built when asked for."""

    pe: np.ndarray

    def __len__(self) -> int:
        return self.pe.shape[0]

    def __getitem__(self, c) -> LevelErrorModel:
        return LevelErrorModel(pe=self.pe[c])
