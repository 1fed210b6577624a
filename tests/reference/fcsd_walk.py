"""Frozen reference: FCSD's and SIC's per-channel walks.

These are ``detectors/fcsd.py`` and ``detectors/sic.py`` as they stood
before both detectors became FlexCore walk plans: FCSD's complex-valued,
chunked loop over the ``|Q|**L`` paths of one channel, and SIC's slicing
cascade.  They are kept *as oracles, not second implementations*:
nothing under ``src/`` imports them, they are never optimised, and
``tests/detectors/test_fcsd_plan.py`` pins the production detectors to
them — equal decisions, and equal FLOP totals for FCSD.  The only change
is that FCSD's chunk walk is split out (:meth:`FcsdDetector.walk_chunk`)
so that a test can read every path's distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detectors.base import DetectionResult, Detector
from repro.errors import ConfigurationError
from repro.mimo.qr import QrDecomposition, fcsd_sorted_qr, sorted_qr
from repro.mimo.system import MimoSystem
from repro.utils.flops import NULL_COUNTER, FlopCounter

#: Upper bound on (batch-chunk x paths) elements held live at once.
MAX_CHUNK_ELEMENTS = 1 << 18


@dataclass
class _FcsdContext:
    qr: QrDecomposition
    diag: np.ndarray
    weights: np.ndarray
    path_assignments: np.ndarray  # (paths, L) symbol indices for top levels


class FcsdDetector(Detector):
    """FCSD with ``L`` fully-expanded levels.

    Parameters
    ----------
    num_expanded:
        ``L``; the detector evaluates ``|Q|**L`` parallel paths.
    qr_method:
        ``"fcsd"`` (Barbero-Thompson ordering, default) or ``"sorted"``
        (Wübben); §5.1 tries both and keeps the better.
    """

    name = "fcsd"

    def __init__(
        self,
        system: MimoSystem,
        num_expanded: int = 1,
        qr_method: str = "fcsd",
    ):
        super().__init__(system)
        if not 0 <= num_expanded <= system.num_streams:
            raise ConfigurationError(
                f"num_expanded must lie in [0, {system.num_streams}]"
            )
        if qr_method not in ("fcsd", "sorted"):
            raise ConfigurationError(f"unknown qr_method {qr_method!r}")
        self.num_expanded = int(num_expanded)
        self.qr_method = qr_method

    @property
    def num_paths(self) -> int:
        """Parallel paths (= processing elements at minimum latency)."""
        return self.system.constellation.order**self.num_expanded

    def prepare(
        self,
        channel: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> _FcsdContext:
        channel = self._check_channel(channel)
        if self.qr_method == "fcsd":
            qr = fcsd_sorted_qr(
                channel, self.num_expanded, noise_var, counter=counter
            )
        else:
            qr = sorted_qr(channel, counter=counter)
        diag = np.real(np.diagonal(qr.r)).copy()
        order = self.system.constellation.order
        if self.num_expanded:
            grids = np.indices((order,) * self.num_expanded)
            assignments = grids.reshape(self.num_expanded, -1).T
        else:
            assignments = np.zeros((1, 0), dtype=np.int64)
        return _FcsdContext(
            qr=qr,
            diag=diag,
            weights=diag**2,
            path_assignments=assignments.astype(np.int64),
        )

    def detect_prepared(
        self,
        context: _FcsdContext,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        received = self._check_received(received)
        rotated = context.qr.rotate_received(received)
        paths = context.path_assignments.shape[0]
        chunk = max(1, MAX_CHUNK_ELEMENTS // paths)
        pieces = []
        for start in range(0, rotated.shape[0], chunk):
            block = rotated[start : start + chunk]
            pieces.append(self._detect_chunk(context, block, counter))
        indices = np.concatenate(pieces, axis=0)
        restored = context.qr.restore_order(indices)
        return DetectionResult(
            indices=restored, metadata={"paths": paths}
        )

    def _detect_chunk(
        self,
        context: _FcsdContext,
        rotated: np.ndarray,
        counter: FlopCounter,
    ) -> np.ndarray:
        indices, ped = self.walk_chunk(context, rotated, counter)
        best = np.argmin(ped, axis=1)
        return np.take_along_axis(
            indices, best[:, None, None], axis=1
        )[:, 0, :]

    def walk_chunk(
        self,
        context: _FcsdContext,
        rotated: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> tuple:
        """Every path of a chunk: indices ``(n, P, Nt)`` in detection
        order and the PEDs ``(n, P)``."""
        constellation = self.system.constellation
        points = constellation.points
        num_streams = self.system.num_streams
        batch = rotated.shape[0]
        paths = context.path_assignments.shape[0]
        r = context.qr.r

        symbols = np.zeros((batch, paths, num_streams), dtype=np.complex128)
        indices = np.zeros((batch, paths, num_streams), dtype=np.int64)
        ped = np.zeros((batch, paths))
        first_greedy = num_streams - self.num_expanded
        for level in range(num_streams - 1, -1, -1):
            if level + 1 < num_streams:
                interference = symbols[:, :, level + 1 :] @ r[level, level + 1 :]
            else:
                interference = np.zeros((batch, paths))
            effective = (
                rotated[:, level][:, None] - interference
            ) / context.diag[level]
            if level >= first_greedy:
                column = num_streams - 1 - level
                level_indices = np.broadcast_to(
                    context.path_assignments[:, column][None, :], (batch, paths)
                )
            else:
                level_indices = constellation.slice_to_index(effective)
            symbols[:, :, level] = points[level_indices]
            indices[:, :, level] = level_indices
            ped += context.weights[level] * (
                np.abs(effective - symbols[:, :, level]) ** 2
            )
            counter.add_complex_mults(batch * paths * (num_streams - 1 - level))
            counter.add_real_mults(batch * paths * 5)
        return indices, ped


@dataclass
class _SicContext:
    qr: QrDecomposition


class SicDetector(Detector):
    """Sorted-QR successive interference cancellation."""

    name = "sic"

    def prepare(
        self,
        channel: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> _SicContext:
        channel = self._check_channel(channel)
        return _SicContext(qr=sorted_qr(channel, counter=counter))

    def detect_prepared(
        self,
        context: _SicContext,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        received = self._check_received(received)
        qr = context.qr
        constellation = self.system.constellation
        num_streams = self.system.num_streams
        rotated = qr.rotate_received(received)  # (n, Nt)
        batch = received.shape[0]

        detected_symbols = np.empty((batch, num_streams), dtype=np.complex128)
        detected_indices = np.empty((batch, num_streams), dtype=np.int64)
        diag = np.real(np.diagonal(qr.r))
        for level in range(num_streams - 1, -1, -1):
            interference = (
                detected_symbols[:, level + 1 :] @ qr.r[level, level + 1 :]
                if level + 1 < num_streams
                else 0.0
            )
            effective = (rotated[:, level] - interference) / diag[level]
            indices = constellation.slice_to_index(effective)
            detected_indices[:, level] = indices
            detected_symbols[:, level] = constellation.points[indices]
            counter.add_complex_mults(batch * (num_streams - 1 - level))
            counter.add_real_mults(2 * batch)  # division by the real diagonal
        restored = qr.restore_order(detected_indices)
        return DetectionResult(indices=restored)
