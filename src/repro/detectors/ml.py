"""Exhaustive maximum-likelihood detection.

Feasible only for small ``|Q|**Nt``; serves as the ground truth the sphere
decoder, FCSD, trellis and FlexCore are validated against in the test
suite.  For large systems the exact-ML reference is
:class:`repro.detectors.sphere.SphereDecoder`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detectors.base import DetectionResult, Detector
from repro.errors import ConfigurationError
from repro.mimo.system import MimoSystem
from repro.utils.flops import NULL_COUNTER, FlopCounter

#: Refuse exhaustive enumeration beyond this many candidate vectors.
MAX_CANDIDATES = 1 << 20


def enumerate_symbol_vectors(system: MimoSystem) -> np.ndarray:
    """All ``|Q|**Nt`` index vectors, shape ``(candidates, Nt)``.

    Stream 0 varies slowest, matching ``np.ndindex`` order; tests rely on
    the ordering being deterministic.
    """
    order = system.constellation.order
    num_streams = system.num_streams
    total = order**num_streams
    if total > MAX_CANDIDATES:
        raise ConfigurationError(
            f"exhaustive ML infeasible: |Q|^Nt = {total} candidates"
        )
    grids = np.indices((order,) * num_streams).reshape(num_streams, total)
    return grids.T.astype(np.int64)


@dataclass
class _MlContext:
    candidate_indices: np.ndarray  # (candidates, Nt)
    candidate_received: np.ndarray  # (candidates, Nr): H s for each candidate


class MlDetector(Detector):
    """Brute-force ML over every candidate transmit vector."""

    name = "ml"

    def __init__(self, system: MimoSystem, chunk_size: int = 1 << 16):
        super().__init__(system)
        self.chunk_size = int(chunk_size)

    def prepare(
        self,
        channel: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> _MlContext:
        channel = self._check_channel(channel)
        candidates = enumerate_symbol_vectors(self.system)
        symbols = self.system.constellation.points[candidates]
        candidate_received = symbols @ channel.T
        counter.add_complex_mults(
            candidates.shape[0]
            * self.system.num_streams
            * self.system.num_rx_antennas
        )
        return _MlContext(
            candidate_indices=candidates, candidate_received=candidate_received
        )

    def detect_prepared(
        self,
        context: _MlContext,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        received = self._check_received(received)
        num_candidates = context.candidate_received.shape[0]
        best = np.empty(received.shape[0], dtype=np.int64)
        best_metric = np.empty(received.shape[0])
        for start in range(0, received.shape[0], self.chunk_size):
            block = received[start : start + self.chunk_size]
            # (n_block, candidates): squared distances.
            deltas = block[:, None, :] - context.candidate_received[None, :, :]
            metric = np.sum(np.abs(deltas) ** 2, axis=2)
            best[start : start + block.shape[0]] = np.argmin(metric, axis=1)
            best_metric[start : start + block.shape[0]] = np.min(metric, axis=1)
            counter.add_magnitude_squared(
                block.shape[0] * num_candidates * self.system.num_rx_antennas
            )
        indices = context.candidate_indices[best]
        return DetectionResult(
            indices=indices, metadata={"min_distance_sq": best_metric}
        )
