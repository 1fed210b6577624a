"""The native ``build_plan`` against its oracle, the portable
``_build_plan``: one plan, field by field, to the byte.

Both lanes build from the same prepared block, so every field must
agree in dtype, shape and bytes, and the level-major path fields in
their strides too (the walk reads those strides).  Covered: 2-12
streams and 4- to 256-QAM, any subset of a block's rows (one row
included), path counts below the search's, budget clamps, a-FlexCore's
trimmed actives, ranks outside the LUT (the sentinel row) and FCSD's
broadcast path set at ``L`` 1-2.  A cold block on the native lane makes
one ``build_plan`` call per equal-path group and never reaches
``TriangleOrdering.path_offsets``.

The portable half — what ``_build_plan`` makes on the ``CC=false`` lane
— runs everywhere; the comparison skips where there is no compiler.
"""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.detectors.fcsd import FcsdDetector
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.ordering import TriangleOrdering
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.batch import UplinkBatch
from repro.runtime.cache import ContextCache
from repro.runtime.service import DetectionService
from repro.utils.xp import resolve_array_module
from tests.conftest import make_block, portable_lane

NUMPY = resolve_array_module("numpy")
ORDERS = (4, 16, 64, 256)
ORDERINGS = {order: TriangleOrdering(QamConstellation(order)) for order in ORDERS}
LEVEL_MAJOR = ("offsets", "swap_delta")

needs_native = pytest.mark.skipif(
    native.status()["lane"] != "native",
    reason=f"no native lane here: {native.status()['reason']}",
)


def detector_for(order, streams, paths, adaptive=False, fcsd_levels=0):
    system = MimoSystem(streams, streams, QamConstellation(order))
    if fcsd_levels:
        return FcsdDetector(system, fcsd_levels)
    if adaptive:
        return AdaptiveFlexCoreDetector(system, paths, 0.9, ordering=ORDERINGS[order])
    return FlexCoreDetector(system, paths, ordering=ORDERINGS[order])


def portable_plan(detector, block, members, paths):
    with portable_lane():
        return detector._build_plan(block, members, paths, NUMPY)


def assert_same_plan(native_plan, portable):
    for field in fields(portable):
        ours, theirs = getattr(native_plan, field.name), getattr(portable, field.name)
        if theirs is None or isinstance(theirs, int):
            assert ours == theirs, field.name
            continue
        ours, theirs = np.asarray(ours), np.asarray(theirs)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), field.name
        if field.name in LEVEL_MAJOR:
            assert ours.strides == theirs.strides, field.name
        assert np.ascontiguousarray(ours).tobytes() == np.ascontiguousarray(theirs).tobytes(), (
            field.name
        )


@st.composite
def cases(draw):
    order = draw(st.sampled_from(ORDERS))
    streams = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["flexcore", "a-flexcore", "fcsd"]))
    levels = 0
    if kind == "fcsd":
        order = draw(st.sampled_from([4, 16]))
        levels = draw(st.integers(1, 2 if order == 4 else 1))
    detector = detector_for(order, streams, draw(st.integers(1, 24)), kind == "a-flexcore", levels)
    rows = draw(st.integers(1, 6))
    members = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=8))
    return detector, rows, np.asarray(members), draw(st.integers(0, 2**31 - 1)), draw(st.data())


class TestPortableLane:
    def test_plan_fields_on_the_portable_lane(self):
        detector = detector_for(16, 4, 8)
        channels, _, noise_var = make_block(detector.system, 3, 1, 15.0, seed=3)
        block = detector.prepare_many(channels, noise_var)
        plan = portable_plan(detector, block, np.array([2, 0]), 5)
        assert plan.offsets.shape == plan.swap_delta.shape == (4, 2, 1, 2, 5)
        assert plan.offsets.dtype == ORDERINGS[16]._walk_offsets.dtype
        assert plan.rows.shape == (2, 4, 2, 8) and plan.positions is None


@needs_native
class TestNativeAgainstPortable:
    @settings(max_examples=150, deadline=None)
    @given(cases())
    def test_every_field_to_the_byte(self, case):
        detector, rows, members, seed, data = case
        channels, _, noise_var = make_block(detector.system, rows, 1, 12.0, seed=seed)
        block = detector.prepare_many(channels, noise_var)
        paths = data.draw(st.integers(1, int(block.active[members].min())), label="paths")
        plan = detector._build_plan(block, members, paths, NUMPY)
        expected = portable_plan(detector, block, members, paths)
        assert_same_plan(plan, expected)
        budget = data.draw(st.integers(1, paths), label="budget")
        assert_same_plan(plan.clamp(budget), expected.clamp(budget))
        assert_same_plan(plan.subcarriers(slice(0, 1)), expected.subcarriers(slice(0, 1)))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(ORDERS), st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_ranks_outside_the_lut_take_the_sentinel(self, order, streams, seed):
        detector = detector_for(order, streams, 6)
        channels, _, noise_var = make_block(detector.system, 3, 1, 12.0, seed=seed)
        block = detector.prepare_many(channels, noise_var)
        rng = np.random.default_rng(seed)
        ranks = rng.integers(-2, ORDERINGS[order].max_rank + 3, block.search.position_vectors.shape)
        block = replace(block, search=replace(block.search, position_vectors=ranks))
        members = np.array([2, 0, 2])
        assert_same_plan(
            detector._build_plan(block, members, 6, NUMPY),
            portable_plan(detector, block, members, 6),
        )

    def test_one_row_plan_of_the_serial_route(self):
        detector = detector_for(64, 3, 10)
        channels, _, noise_var = make_block(detector.system, 2, 1, 18.0, seed=5)
        context = detector.prepare_many(channels, noise_var)[1]
        with portable_lane():
            expected = detector._row_plan(context, NUMPY)
        assert_same_plan(detector._row_plan(context, NUMPY), expected)

    def test_a_member_outside_the_block_is_refused(self):
        detector = detector_for(16, 2, 4)
        channels, _, noise_var = make_block(detector.system, 2, 1, 18.0, seed=6)
        block = detector.prepare_many(channels, noise_var)
        with pytest.raises(ValueError, match="not a row"):
            detector._build_plan(block, np.array([0, 2]), 4, NUMPY)

    def test_a_cold_block_builds_one_plan_per_group_and_no_path_offsets(self):
        detector = detector_for(16, 4, 16, adaptive=True)
        channels, received, noise_var = make_block(detector.system, 24, 2, 14.0, seed=7)
        groups = len(np.unique(detector.prepare_many(channels, noise_var).active))
        assert groups > 1
        kernel = native.kernel()
        with (
            mock.patch.object(kernel, "build_plan", wraps=kernel.build_plan) as build_plan,
            mock.patch.object(
                TriangleOrdering, "path_offsets", side_effect=AssertionError("path_offsets")
            ),
            DetectionService("array") as service,
        ):
            batch = UplinkBatch(channels, received, noise_var)
            service.detect(detector, batch, cache=ContextCache())
        assert build_plan.call_count == groups
