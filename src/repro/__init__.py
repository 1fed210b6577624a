"""FlexCore (NSDI '17) reproduction.

A production-quality Python library reproducing "FlexCore: Massively
Parallel and Flexible Processing for Large MIMO Access Points" (Husmann,
Georgis, Nikitopoulos, Jamieson -- NSDI 2017): the FlexCore detector, every
baseline it is evaluated against, the channel/OFDM/coding substrate, the
GPU/FPGA execution models and the full experiment harness.

Quickstart::

    from repro import MimoSystem, QamConstellation, FlexCoreDetector
    from repro.channel import rayleigh_channel
    from repro.mimo import apply_channel, noise_variance_for_snr_db

    system = MimoSystem(8, 8, QamConstellation(16))
    detector = FlexCoreDetector(system, num_paths=32)
    ...

See ``examples/quickstart.py`` for the full loop.
"""

from repro.api import (
    BackendSpec,
    CacheSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
    UplinkStack,
    build_stack,
)
from repro.control import (
    AimdPolicy,
    ComputeGovernor,
    SnrAwarePolicy,
    StaticPolicy,
    WorkloadScenario,
)
from repro.detectors import (
    DetectionResult,
    Detector,
    FcsdDetector,
    MlDetector,
    MmseDetector,
    SicDetector,
    SphereDecoder,
    TrellisDetector,
    ZfDetector,
    available_detectors,
    make_detector,
)
from repro.flexcore import (
    AdaptiveFlexCoreDetector,
    FlexCoreDetector,
    LevelErrorModel,
    TriangleOrdering,
    find_promising_paths,
)
from repro.mimo import MimoSystem
from repro.modulation import QamConstellation
from repro.runtime import UplinkBatch

__version__ = "1.2.0"

__all__ = [
    "AdaptiveFlexCoreDetector",
    "AimdPolicy",
    "BackendSpec",
    "CacheSpec",
    "ComputeGovernor",
    "DetectorSpec",
    "FarmSpec",
    "GovernorSpec",
    "SchedulerSpec",
    "SnrAwarePolicy",
    "StackConfig",
    "StaticPolicy",
    "UplinkStack",
    "WorkloadScenario",
    "build_stack",
    "DetectionResult",
    "Detector",
    "FcsdDetector",
    "FlexCoreDetector",
    "LevelErrorModel",
    "MimoSystem",
    "MlDetector",
    "MmseDetector",
    "QamConstellation",
    "SicDetector",
    "SphereDecoder",
    "TriangleOrdering",
    "TrellisDetector",
    "UplinkBatch",
    "ZfDetector",
    "available_detectors",
    "find_promising_paths",
    "make_detector",
    "__version__",
]
