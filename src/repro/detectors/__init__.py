"""MIMO detectors: the paper's baselines plus shared infrastructure.

FlexCore itself lives in :mod:`repro.flexcore`; it implements the same
:class:`~repro.detectors.base.Detector` interface so link-level harnesses
can treat every scheme uniformly.
"""

from repro.detectors.base import DetectionResult, Detector
from repro.detectors.fcsd import FcsdDetector
from repro.detectors.linear import MmseDetector, ZfDetector
from repro.detectors.ml import MlDetector
from repro.detectors.registry import available_detectors, make_detector
from repro.detectors.sic import SicDetector
from repro.detectors.sphere import SphereDecoder
from repro.detectors.trellis import TrellisDetector

__all__ = [
    "DetectionResult",
    "Detector",
    "FcsdDetector",
    "MlDetector",
    "MmseDetector",
    "SicDetector",
    "SphereDecoder",
    "TrellisDetector",
    "ZfDetector",
    "available_detectors",
    "make_detector",
]
