"""Fig. 9 regeneration bench: throughput-vs-PEs machinery.

Times the per-point kernel (one coded-PER measurement for one scheme at
one PE count) and a single-panel regeneration at the tiny profile.
"""

import pytest

from repro.detectors.fcsd import FcsdDetector
from repro.experiments import fig9
from repro.experiments.linkruns import (
    LINK_STACK_CONFIG,
    make_link_config,
    make_sampler_factory,
    run_point,
)
from repro.flexcore.detector import FlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation


@pytest.fixture(scope="module")
def point_setup(tiny_profile):
    system = MimoSystem(8, 8, QamConstellation(16))
    config = make_link_config(system, tiny_profile)
    factory = make_sampler_factory(config, tiny_profile, "testbed")
    return system, config, factory, tiny_profile


def test_flexcore_point(benchmark, point_setup):
    system, config, factory, profile = point_setup
    detector = FlexCoreDetector(system, num_paths=32)
    result = benchmark.pedantic(
        run_point,
        args=(config, detector, 14.0, profile, factory, LINK_STACK_CONFIG),
        rounds=2,
        iterations=1,
    )
    assert 0.0 <= result.per <= 1.0


def test_fcsd_point(benchmark, point_setup):
    system, config, factory, profile = point_setup
    detector = FcsdDetector(system, num_expanded=1)
    result = benchmark.pedantic(
        run_point,
        args=(config, detector, 14.0, profile, factory, LINK_STACK_CONFIG),
        rounds=2,
        iterations=1,
    )
    assert 0.0 <= result.per <= 1.0


def test_fig9_single_panel(benchmark, tiny_profile):
    result = benchmark.pedantic(
        fig9.run,
        kwargs={
            "profile": tiny_profile,
            "panels": ((4, 16),),
            "targets": (0.1,),
        },
        rounds=1,
        iterations=1,
    )
    schemes = {row["scheme"] for row in result.rows}
    assert "flexcore" in schemes and "fcsd" in schemes
