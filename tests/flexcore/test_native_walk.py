"""The walk's native lane against its oracle, the portable level loop.

``repro/native/walk.c`` runs every level of a ``(G, F, P)`` tile in one
call; ``FlexCoreDetector._walk`` on a module without ``walk_tile`` is the
same arithmetic as ~19 numpy passes per level.  The two may differ only
by the summation order of the interference product, so over every shape
the kernel has a code path for: symbols, the dead mask and the decisions
are equal bit for bit, distances to 64 ulp and FLOP charges exactly;
and the native lane is bit-identical *to itself* however a block is
strided, tiled, stacked or entered.

Everything here skips only where ``repro.native.status()`` reports no
compiler; ``tests/native/test_native_loader.py`` covers the loader.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.flexcore.detector as detector_module
from repro import native
from repro.flexcore.detector import FlexCoreDetector, WalkWorkspace, _StackedContexts
from repro.flexcore.ordering import TriangleOrdering
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.residency import ResidentContextStore
from repro.runtime.service import clamp_context_paths
from repro.utils.flops import FlopCounter
from repro.utils.xp import (
    CountingArrayModule,
    CupyArrayModule,
    NumpyArrayModule,
    TorchArrayModule,
    resolve_array_module,
)
from tests.conftest import assert_same_distances, make_block
from tests.flexcore.test_walk_equivalence import boundary_axis
from tests.flexcore.test_workspace import peak_kib_of_a_warm_call

pytestmark = pytest.mark.skipif(
    native.status()["lane"] != "native",
    reason=f"no native lane here: {native.status()['reason']}",
)

NUMPY = resolve_array_module("numpy")
ORDERINGS = {order: TriangleOrdering(QamConstellation(order)) for order in (4, 16, 64, 256)}


class _Portable(NumpyArrayModule):
    """numpy without the fused op: the level loop, in the same process."""

    walk_tile = None


PORTABLE = _Portable()


def detector_for(order, num_streams, cls=FlexCoreDetector, paths=1):
    system = MimoSystem(num_streams, num_streams, QamConstellation(order))
    return cls(system, paths, ordering=ORDERINGS[order])


def synthetic(order, num_streams, group, frames, paths, rng, quiet=False):
    """A plan and planes of any shape, no pre-processing needed: ranks
    drawn over (and a little beyond) the LUT, interference rows the size
    of an ``R / diag`` off-diagonal — or zero (``quiet``), so that every
    level meets the boundary values exactly, on both lanes alike."""
    ordering = ORDERINGS[order]
    side = QamConstellation(order).side
    ranks = rng.integers(0, ordering.max_rank + 2, (num_streams, group, 1, paths))
    ranks[:, :, :, 0] = 1
    offsets, swap_delta = ordering.path_offsets(ranks, NUMPY)
    rows = rng.normal(0.0, 0.0 if quiet else 0.3, (group, num_streams, 2, 2 * num_streams))
    plan = _StackedContexts(
        q_conj=None,
        inverse_permutation=None,
        to_grid=np.ones((group, 1, num_streams)),
        rows=rows,
        weights=rng.uniform(0.5, 2.0, (group, num_streams)),
        offsets=offsets,
        swap_delta=swap_delta,
        positions=None,
    )
    planes = rng.normal(0.0, 0.6 * side, (group, frames, num_streams, 2))
    planes = np.where(
        rng.random(planes.shape) < 0.5, rng.choice(boundary_axis(side), planes.shape), planes
    )
    return plan, planes


def walk(detector, plan, planes, xp=NUMPY, counter=None, scratch=None):
    counter = FlopCounter() if counter is None else counter
    symbols, ped, dead = detector._walk(planes, plan, xp, counter, False, scratch)
    return np.array(symbols), np.array(ped), np.array(dead)


def assert_bit_identical(got, expected):
    for ours, theirs in zip(got, expected):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(np.signbit(got[0]), np.signbit(expected[0]))


class TestAgainstThePortableLane:
    @settings(max_examples=80, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64, 256]),
        num_streams=st.integers(2, 12),
        paths=st.sampled_from([1, 3, 17, 64, 129, 1500]),
        shape=st.sampled_from([(1, 1), (1, 4), (3, 1), (2, 3), (5, 2), (2, 0)]),
        quiet=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_symbols_dead_and_decisions_equal_distances_to_64_ulp(
        self, order, num_streams, paths, shape, quiet, seed
    ):
        detector = detector_for(order, num_streams)
        rng = np.random.default_rng(seed)
        plan, planes = synthetic(order, num_streams, *shape, paths, rng, quiet)
        ours, theirs = FlopCounter(), FlopCounter()
        got = walk(detector, plan, planes, NUMPY, ours)
        expected = walk(detector, plan, planes, PORTABLE, theirs)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(np.signbit(got[0]), np.signbit(expected[0]))
        assert np.array_equal(got[2], expected[2])
        assert_same_distances(got[1], expected[1], plan.weights)
        assert ours == theirs and (ours.total_flops > 0) == (shape[1] > 0)
        if quiet:
            # No interference: nothing is summed, so nothing may differ.
            assert np.array_equal(got[1], expected[1])
        if shape[1]:
            # Rank 1 never leaves the constellation: a decision exists.
            assert not got[2][:, :, 0].any()
            winners = [detector._winner(w[0], w[1], NUMPY) for w in (got, expected)]
            cells = [detector._symbol_indices(winner, NUMPY) for winner in winners]
            alike = np.argmin(got[1], axis=2) == np.argmin(expected[1], axis=2)
            assert np.array_equal(cells[0][alike], cells[1][alike])

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_the_boundary_grid_and_out_of_range_ranks(self, order):
        """Every pair of ``boundary_axis`` coordinates (±0.0, half
        integers, ``|dx| == |dy|``, far outside) under every rank, the
        sentinel offsets of ranks 0 and > max_rank included: one level,
        no interference — the lanes agree to the bit, distances too."""
        ordering = ORDERINGS[order]
        detector = detector_for(order, 1)
        axis = boundary_axis(QamConstellation(order).side)
        real, imag = (grid.reshape(-1) for grid in np.meshgrid(axis, axis))
        planes = np.stack([real, imag], axis=1)[None, :, None, :]
        ranks = np.arange(0, ordering.max_rank + 3)[None, None, None, :]
        offsets, swap_delta = ordering.path_offsets(ranks, NUMPY)
        plan = _StackedContexts(
            None, None, np.ones((1, 1, 1)), np.zeros((1, 1, 2, 2)), np.ones((1, 1)),
            offsets, swap_delta, None,
        )  # fmt: skip
        got = walk(detector, plan, planes)
        assert_bit_identical(got, walk(detector, plan, planes, PORTABLE))
        assert got[2][0][:, [0, -1, -2]].all(), "sentinel offsets always deactivate"
        assert not got[2][0][:, 1].any(), "rank 1 never deactivates"
        assert np.isinf(got[1][got[2]]).all() and np.isfinite(got[1][~got[2]]).all()

    def test_nan_deactivates_and_inf_is_infinitely_far_on_both_lanes(self):
        detector = detector_for(16, 3)
        plan, planes = synthetic(16, 3, 2, 4, 17, np.random.default_rng(5))
        planes[0, 1, 2, 0] = np.nan
        planes[1, 2, 1, 1] = np.inf
        planes[1, 3, 0, 0] = -np.inf
        got = walk(detector, plan, planes)
        expected = walk(detector, plan, planes, PORTABLE)
        assert np.array_equal(got[2], expected[2])
        assert got[2][0, 1].all(), "NaN => dead"
        assert np.isinf(got[1][1, 2:]).all() and not got[2][1, 2:, 0].any()
        assert np.array_equal(got[0], expected[0], equal_nan=True)
        assert_same_distances(got[1], expected[1], plan.weights)


class TestBitIdenticalToItself:
    """Per-lane bit-identity: across strides, tilings and entry points."""

    def setup_method(self):
        self.detector = detector_for(16, 6, SoftFlexCoreDetector, 24)
        channels, self.received, self.noise_var = make_block(
            self.detector.system, 5, 9, 12.0, 99
        )
        self.contexts = self.detector.prepare_many(channels, self.noise_var)
        self.plan = self.detector._plan(self.contexts, NUMPY)
        self.planes = self.plan.grid_planes(
            np.matmul(self.received, self.plan.q_conj), NUMPY
        )

    @staticmethod
    def contiguous(plan):
        return replace(
            plan,
            **{
                field.name: np.ascontiguousarray(value)
                for field in fields(plan)
                if (value := getattr(plan, field.name)) is not None
            },
        )

    @pytest.mark.parametrize("budget", [1, 7, 23])
    def test_a_clamped_plan_is_its_contiguous_copy(self, budget):
        clamped = self.plan.clamp(budget)
        assert not clamped.offsets.flags.c_contiguous
        assert_bit_identical(
            walk(self.detector, clamped, self.planes),
            walk(self.detector, self.contiguous(clamped), self.planes),
        )

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(1, 4), slice(3, 5)])
    def test_a_tile_of_subcarriers_is_its_contiguous_copy(self, rows):
        part = self.plan.subcarriers(rows).clamp(19)
        assert not part.swap_delta.flags.c_contiguous
        whole = walk(self.detector, self.plan.clamp(19), self.planes)
        got = walk(self.detector, part, self.planes[rows])
        assert_bit_identical(got, walk(self.detector, self.contiguous(part), self.planes[rows]))
        assert_bit_identical(got, [tensor[rows] for tensor in whole])

    @pytest.mark.parametrize("limit", [1, 7, 600, 5000, 40000, 1 << 18, 1 << 23])
    def test_every_tile_limit(self, limit, monkeypatch):
        expected = walk(self.detector, self.plan, self.planes)
        monkeypatch.setattr(detector_module, "MAX_CHUNK_ELEMENTS", limit)
        got = [np.full_like(tensor, 1) for tensor in expected]
        tiles = 0
        for rows, cols, *tile in self.detector._walk_tiles(
            self.plan, self.planes, NUMPY, FlopCounter(), False, WalkWorkspace(NUMPY)
        ):
            tiles += 1
            for whole, part in zip(got, tile):
                whole[rows, cols] = part
        assert tiles == (45 if limit <= 600 else 5 if limit == 5000 else 1)
        assert_bit_identical(got, expected)

    def test_per_channel_equals_stacked_hard_and_soft(self):
        detector, contexts, received = self.detector, self.contexts, self.received
        indices, metadata = detector.detect_block_prepared(
            contexts, received, store=ResidentContextStore(), max_paths=20
        )
        soft = detector.detect_soft_block_prepared(
            contexts, received, self.noise_var, store=ResidentContextStore()
        )
        for sc, context in enumerate(contexts):
            alone = detector.detect_prepared(clamp_context_paths(context, 20), received[sc])
            assert np.array_equal(alone.indices, indices[sc])
            assert alone.metadata == metadata[sc]
            alone = detector.detect_soft_prepared(context, received[sc], self.noise_var)
            assert np.array_equal(alone.indices, soft[0][sc])
            assert np.array_equal(alone.llrs, soft[1][sc])
            assert alone.metadata == soft[2][sc]

    def test_flop_totals_equal_across_lanes_and_entry_points(self):
        counters = [FlopCounter() for _ in range(3)]
        args = (self.contexts, self.received)
        self.detector.detect_block_prepared(*args, counter=counters[0], xp=NUMPY)
        self.detector.detect_block_prepared(*args, counter=counters[1], xp=PORTABLE)
        for context, received in zip(*args):
            self.detector.detect_prepared(context, received, counter=counters[2])
        assert counters[0] == counters[1] == counters[2]
        assert counters[0].total_flops > 0

    def test_a_warm_call_allocates_nothing_with_a_path_axis(self):
        scratch = WalkWorkspace(NUMPY)
        plan, planes = synthetic(64, 12, 8, 7, 128, np.random.default_rng(3))
        detector = detector_for(64, 12)

        def call():
            detector._walk(planes, plan, NUMPY, FlopCounter(), False, scratch)

        # One (8, 7, 128) float64 path plane is 56 KiB; ``half`` is 10.5.
        assert peak_kib_of_a_warm_call(call) < 24.0
        # And the lane carves no level temporaries at all.
        assert set(scratch._flat) == {"symbols", "ped", "dead", "kernel"}


class TestOnlyNumpyHasTheOp:
    def test_torch_and_cupy_never_take_the_native_lane(self):
        # Class attributes: no import of either library is needed to know.
        assert TorchArrayModule.walk_tile is None
        assert CupyArrayModule.walk_tile is None

    def test_the_counting_wrapper_forwards_it(self):
        assert CountingArrayModule("numpy").walk_tile is native.kernel()
        assert NUMPY.walk_tile is native.kernel() is not None

    def test_the_exact_ordering_ablation_walks_level_by_level(self):
        system = MimoSystem(3, 3, QamConstellation(16))
        detector = FlexCoreDetector(system, 8, use_exact_ordering=True)
        channels, received, noise_var = make_block(system, 2, 3, 10.0, 1)
        contexts = detector.prepare_many(channels, noise_var)
        store = ResidentContextStore()
        detector.detect_block_prepared(contexts, received, store=store)
        assert "kernel" not in store.scratch(NUMPY, WalkWorkspace)._flat

    def test_the_kernel_refuses_what_is_not_the_walks_layout(self):
        detector = detector_for(16, 3)
        plan, planes = synthetic(16, 3, 2, 2, 5, np.random.default_rng(0))
        wrong = replace(plan, offsets=plan.offsets.astype(np.int64))
        with pytest.raises(ValueError, match="layout"):
            walk(detector, wrong, planes)
        with pytest.raises(ValueError, match="layout"):
            walk(detector, replace(plan, rows=plan.rows[:, :, :, ::-1]), planes)
