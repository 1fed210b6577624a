"""MIMO detectors: the paper's baselines plus shared infrastructure.

FlexCore itself lives in :mod:`repro.flexcore`; it implements the same
:class:`~repro.detectors.base.Detector` interface so link-level harnesses
can treat every scheme uniformly.  FCSD and SIC are FlexCore walk plans,
and FlexCore imports this package's base: they load on first use.
"""

from repro.detectors.base import DetectionResult, Detector
from repro.detectors.linear import MmseDetector, ZfDetector
from repro.detectors.ml import MlDetector
from repro.detectors.registry import available_detectors, make_detector
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


def __getattr__(name: str):
    if name == "FcsdDetector":
        from repro.detectors.fcsd import FcsdDetector

        return FcsdDetector
    if name == "SicDetector":
        from repro.detectors.sic import SicDetector

        return SicDetector
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
