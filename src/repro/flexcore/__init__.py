"""FlexCore: the paper's primary contribution.

The pipeline has two stages (Fig. 2):

1. **Pre-processing** (:mod:`repro.flexcore.preprocessing`) runs when the
   channel changes: the probability model of
   :mod:`repro.flexcore.probability` scores candidate tree paths (indexed
   by *position vectors*) and a best-first tree search extracts the
   ``N_PE`` most promising ones.
2. **Parallel detection** (:mod:`repro.flexcore.detector`) runs per
   received vector: each selected path is evaluated independently — one
   per processing element — using the triangle look-up table of
   :mod:`repro.flexcore.ordering` to find the k-th nearest constellation
   symbol without sorting.

:mod:`repro.flexcore.adaptive` adds a-FlexCore, which activates only as
many processing elements as the channel requires.
"""

from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.ordering import TriangleOrdering
from repro.flexcore.preprocessing import (
    PreprocessingResult,
    find_promising_paths_block,
)
from repro.flexcore.probability import LevelErrorModel
from repro.flexcore.soft import SoftFlexCoreDetector

__all__ = [
    "AdaptiveFlexCoreDetector",
    "FlexCoreDetector",
    "LevelErrorModel",
    "PreprocessingResult",
    "SoftFlexCoreDetector",
    "TriangleOrdering",
    "find_promising_paths_block",
]
