"""Ordered successive interference cancellation (V-BLAST [47]).

QR-based SIC: detect the top tree level first, slice, cancel, descend.
The paper's Fig. 12 treats SIC as "essentially a single-path FlexCore",
which is exactly what this implementation is: FCSD with no expanded
level under a sorted QR — one path, rank 1 at every level, walked by
FlexCore's kernel.
"""

from __future__ import annotations

from repro.detectors.fcsd import FcsdDetector
from repro.mimo.system import MimoSystem


class SicDetector(FcsdDetector):
    """Sorted-QR successive interference cancellation."""

    name = "sic"

    def __init__(self, system: MimoSystem):
        super().__init__(system, num_expanded=0, qr_method="sorted")
