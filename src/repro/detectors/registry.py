"""Name-based detector construction for experiment configuration files."""

from __future__ import annotations

from typing import Callable

from repro.detectors.base import Detector
from repro.errors import ConfigurationError
from repro.mimo.system import MimoSystem


def _build_flexcore(system: MimoSystem, **kwargs) -> Detector:
    from repro.flexcore.detector import FlexCoreDetector

    return FlexCoreDetector(system, **kwargs)


def _build_adaptive_flexcore(system: MimoSystem, **kwargs) -> Detector:
    from repro.flexcore.adaptive import AdaptiveFlexCoreDetector

    return AdaptiveFlexCoreDetector(system, **kwargs)


def _build_soft_flexcore(system: MimoSystem, **kwargs) -> Detector:
    from repro.flexcore.soft import SoftFlexCoreDetector

    return SoftFlexCoreDetector(system, **kwargs)


def _build_zf(system: MimoSystem, **kwargs) -> Detector:
    from repro.detectors.linear import ZfDetector

    return ZfDetector(system, **kwargs)


def _build_mmse(system: MimoSystem, **kwargs) -> Detector:
    from repro.detectors.linear import MmseDetector

    return MmseDetector(system, **kwargs)


def _build_sic(system: MimoSystem, **kwargs) -> Detector:
    from repro.detectors.sic import SicDetector

    return SicDetector(system, **kwargs)


def _build_ml(system: MimoSystem, **kwargs) -> Detector:
    from repro.detectors.ml import MlDetector

    return MlDetector(system, **kwargs)


def _build_sphere(system: MimoSystem, **kwargs) -> Detector:
    from repro.detectors.sphere import SphereDecoder

    return SphereDecoder(system, **kwargs)


def _build_fcsd(system: MimoSystem, **kwargs) -> Detector:
    from repro.detectors.fcsd import FcsdDetector

    return FcsdDetector(system, **kwargs)


def _build_trellis(system: MimoSystem, **kwargs) -> Detector:
    from repro.detectors.trellis import TrellisDetector

    return TrellisDetector(system, **kwargs)


_REGISTRY: dict[str, Callable[..., Detector]] = {
    "zf": _build_zf,
    "mmse": _build_mmse,
    "sic": _build_sic,
    "ml": _build_ml,
    "sphere": _build_sphere,
    "geosphere": _build_sphere,  # the paper's name for the exact-ML baseline
    "fcsd": _build_fcsd,
    "trellis": _build_trellis,
    "flexcore": _build_flexcore,
    "a-flexcore": _build_adaptive_flexcore,
    "soft-flexcore": _build_soft_flexcore,
}


def available_detectors() -> tuple[str, ...]:
    """Names accepted by :func:`make_detector`."""
    return tuple(sorted(_REGISTRY))


def make_detector(name: str, system: MimoSystem, **kwargs) -> Detector:
    """Instantiate a detector by registry name."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector {name!r}; options: {available_detectors()}"
        ) from None
    return builder(system, **kwargs)
