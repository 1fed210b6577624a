"""Fig. 10 regeneration bench: user sweep with a-FlexCore."""


from repro.experiments import fig10
from repro.experiments.linkruns import (
    LINK_STACK_CONFIG,
    make_link_config,
    make_sampler_factory,
    run_point,
)
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation


def test_aflexcore_point_underloaded(benchmark, tiny_profile):
    """The well-conditioned regime where a-FlexCore saves PEs."""
    system = MimoSystem(6, 12, QamConstellation(64))
    config = make_link_config(system, tiny_profile)
    factory = make_sampler_factory(config, tiny_profile, "testbed")
    detector = AdaptiveFlexCoreDetector(system, num_paths=64)
    result = benchmark.pedantic(
        run_point,
        args=(config, detector, 18.0, tiny_profile, factory, LINK_STACK_CONFIG),
        rounds=2,
        iterations=1,
    )
    assert result.metadata["average_active_paths"] >= 1.0


def test_fig10_full_regeneration(benchmark, tiny_profile):
    result = benchmark.pedantic(
        fig10.run, args=(tiny_profile,), rounds=1, iterations=1
    )
    assert {row["scheme"] for row in result.rows} == {
        "geosphere",
        "flexcore",
        "a-flexcore",
        "mmse",
    }
