"""The one walk core, pinned from four sides.

* against ``tests/reference/flexcore_walk.py`` — the frozen complex
  level loop — over constellations, sizes, ragged groups, budget clamps
  and the exact-ordering ablation: equal decisions and counts,
  distances and LLRs to rounding;
* against ``tests/reference/flexcore_walk_split.py`` — the frozen
  allocating split-real loop — over the same grid and every tile limit,
  on both lanes of the walk (``tests/conftest.py::lane``): the same FLOP
  charges and tensors, bit for bit — the tiles are walked by the
  portable level loop whatever the lane (the native lane's one call,
  ``detect_group``, is pinned in ``test_native_detect.py``);
* against brute-force ML, the independent oracle: with every path
  walked FlexCore *is* the ML detector;
* against itself: per-level picks at the triangle's boundaries equal
  the public ``kth_symbol_indices`` lookup, and the core's tensors are
  bit-identical however the work is stacked, chunked, tiled, clamped or
  strided.
"""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.flexcore.detector as detector_module
from repro.detectors.ml import MlDetector
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import (
    FlexCoreDetector,
    WalkWorkspace,
    _StackedContexts,
)
from repro.flexcore.ordering import TriangleOrdering
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.residency import ResidentContextStore
# What the serial path hands the per-channel loop under a budget.
from repro.runtime.service import clamp_context_paths as clamped
from repro.utils.flops import NULL_COUNTER, FlopCounter
from repro.utils.xp import resolve_array_module
from tests.conftest import make_block
from tests.reference import flexcore_walk as reference
from tests.reference import flexcore_walk_split as split

NUMPY = resolve_array_module("numpy")
ORDERINGS = {order: TriangleOrdering(QamConstellation(order)) for order in (4, 16, 64, 256)}


#: (order, Nt) pairs whose walks stay small enough for a property test.
shapes = st.sampled_from(
    [(4, 2), (4, 7), (4, 12), (16, 2), (16, 5), (16, 8), (64, 3), (64, 12), (256, 2), (256, 6)]
)
#: How the group becomes ragged: not at all, pre-processing stopping
#: early, or a-FlexCore trimming its active set per channel.
raggedness = st.sampled_from(["full", "early-stop", "adaptive"])


def build(kind, soft, system, num_paths, exact=False):
    ordering = ORDERINGS[system.constellation.order]
    common = dict(ordering=ordering, use_exact_ordering=exact)
    if kind == "adaptive":
        assert not soft
        return AdaptiveFlexCoreDetector(
            system, num_paths, probability_target=0.9, **common
        )
    if kind == "early-stop":
        common["stop_threshold"] = 0.9
    cls = SoftFlexCoreDetector if soft else FlexCoreDetector
    return cls(system, num_paths, **common)


class TestAgainstTheFrozenLoop:
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        shape=shapes,
        kind=raggedness,
        num_paths=st.integers(1, 40),
        budget=st.one_of(st.none(), st.integers(1, 40)),
        exact=st.booleans(),
        snr_db=st.sampled_from([2.0, 8.0, 14.0]),
        seed=st.integers(0, 2**16),
    )
    def test_hard_decisions_and_deactivations(
        self, shape, kind, num_paths, budget, exact, snr_db, seed
    ):
        order, num_streams = shape
        # The exhaustive ablation sorts |Q| distances per element.
        assume(not exact or order <= 64)
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        detector = build(kind, False, system, num_paths, exact)
        channels, received, noise_var = make_block(system, 6, 3, snr_db, seed)
        contexts = detector.prepare_many(channels, noise_var)

        indices, metadata = detector.detect_block_prepared(
            contexts,
            received,
            store=ResidentContextStore(),
            max_paths=budget,
        )
        for sc, context in enumerate(contexts):
            context = clamped(context, budget)
            expected, deactivated = reference.detect(
                detector, context, received[sc]
            )
            assert np.array_equal(indices[sc], expected)
            assert metadata[sc]["paths"] == context.position_vectors.shape[0]
            assert metadata[sc]["deactivated_path_evaluations"] == deactivated

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        shape=shapes,
        kind=st.sampled_from(["full", "early-stop"]),
        num_paths=st.integers(1, 32),
        budget=st.one_of(st.none(), st.integers(1, 32)),
        snr_db=st.sampled_from([2.0, 8.0, 14.0]),
        seed=st.integers(0, 2**16),
    )
    def test_soft_llrs_and_clamped_bits(
        self, shape, kind, num_paths, budget, snr_db, seed
    ):
        order, num_streams = shape
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        detector = build(kind, True, system, num_paths)
        channels, received, noise_var = make_block(system, 4, 3, snr_db, seed)
        contexts = detector.prepare_many(channels, noise_var)

        indices, llrs, metadata = detector.detect_soft_block_prepared(
            contexts,
            received,
            noise_var,
            store=ResidentContextStore(),
            max_paths=budget,
        )
        for sc, context in enumerate(contexts):
            expected, expected_llrs, clamped_bits = reference.detect_soft(
                detector, clamped(context, budget), received[sc], noise_var
            )
            assert np.array_equal(indices[sc], expected)
            assert metadata[sc]["clamped_bits"] == clamped_bits
            assert np.allclose(llrs[sc], expected_llrs, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("order,num_streams", [(4, 12), (16, 8), (64, 12), (256, 4)])
    def test_candidate_distances(self, order, num_streams):
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        detector = SoftFlexCoreDetector(system, 48, ordering=ORDERINGS[order])
        channels, received, noise_var = make_block(system, 1, 16, 10.0, order)
        context = detector.prepare(channels[0], noise_var)
        rotated = context.qr.rotate_received(received[0])

        indices, ped = detector._candidate_list(context, rotated, NULL_COUNTER)
        expected, expected_ped, alive = reference.walk(detector, context, rotated)
        assert np.array_equal(np.isfinite(ped), alive)
        # 4-QAM's four offsets are its four symbols: nothing to leave.
        assert alive.all() == (order == 4)
        assert np.array_equal(indices[alive], expected[alive])
        assert np.allclose(ped[alive], expected_ped[alive], rtol=1e-9, atol=0.0)


def boundary_axis(side):
    """Where the triangle selection could go either way, per plane: dx
    == 0, dy == 0, |dx| == |dy|, +-0.0, half-integer z/2 (ties of the
    banker's rounding), points far outside the grid."""
    return np.array(
        [-0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0, -2.0, 3.0, -3.0, 2.5]
        + [side - 2.0, side - 1.0, side + 0.0, -side - 1.0, 5.0 * side, -40.0 * side]
    )


def assert_same_walk(got, expected):
    """The core's ``(symbols, ped, dead)`` against the frozen split
    loop's, bit for bit: the core keeps symbols in half-grid units."""
    assert np.array_equal(2.0 * got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])


class TestAgainstTheFrozenSplitLoop:
    """The in-place tiled core returns what the allocating loop it
    replaced returned."""

    @settings(
        max_examples=120,
        deadline=None,
        # The lane is patched once for all examples, as meant.
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        shape=shapes,
        kind=raggedness,
        num_paths=st.integers(1, 40),
        budget=st.one_of(st.none(), st.integers(1, 40)),
        exact=st.booleans(),
        limit=st.one_of(st.integers(1, 1 << 16), st.sampled_from([1 << 19, 1 << 23])),
        snr_db=st.sampled_from([2.0, 8.0, 14.0]),
        seed=st.integers(0, 2**16),
    )
    def test_tensors_and_flop_charges(
        self, lane, shape, kind, num_paths, budget, exact, limit, snr_db, seed
    ):
        order, num_streams = shape
        assume(not exact or order <= 64)
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        detector = build(kind, False, system, num_paths, exact)
        channels, received, noise_var = make_block(system, 6, 3, snr_db, seed)
        contexts = detector.prepare_many(channels, noise_var)
        rng = np.random.default_rng(seed)
        # One workspace for every group and tile, as a store's.
        scratch = WalkWorkspace()
        for members, paths, plan in detector._plans(contexts, NUMPY, None, budget):
            planes = plan.grid_planes(np.matmul(received[members], plan.q_conj))
            # Half the coordinates sit on a boundary: the top level sees
            # them as they are, the others behind their interference.
            planes = np.where(
                rng.random(planes.shape) < 0.5,
                rng.choice(boundary_axis(system.constellation.side), planes.shape),
                planes,
            )
            expected_counter, counter = FlopCounter(), FlopCounter()
            expected = split.walk(detector, planes, plan, expected_counter, exact)
            got = [np.full_like(tensor, 1) for tensor in expected]
            with mock.patch.object(detector_module, "MAX_CHUNK_ELEMENTS", limit):
                for rows, cols, *tile in detector._walk_tiles(
                    plan, planes, NUMPY, counter, exact, scratch
                ):
                    for whole, part in zip(got, tile):
                        whole[rows, cols] = part
            assert_same_walk(got, expected)
            assert counter == expected_counter


class TestAgainstBruteForceMl:
    """Independent oracle: walking *every* path is exhaustive search.

    With the exact ordering, rank ``k`` is the k-th closest symbol, so
    the ``|Q|**Nt`` position vectors enumerate every transmit vector; on
    4-QAM the triangle LUT's four offsets do the same.
    """

    @pytest.mark.parametrize(
        "order,num_streams,exact",
        [(16, 2, True), (4, 4, True), (4, 4, False), (4, 3, False), (16, 3, True)],
    )
    def test_all_paths_equals_ml(self, order, num_streams, exact):
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        detector = FlexCoreDetector(
            system, order**num_streams, use_exact_ordering=exact
        )
        channels, received, noise_var = make_block(system, 3, 12, 8.0, 7 * order)
        contexts = detector.prepare_many(channels, noise_var)
        assert all(
            context.position_vectors.shape[0] == order**num_streams
            for context in contexts
        )
        indices, metadata = detector.detect_block_prepared(contexts, received)
        ml = MlDetector(system)
        for sc in range(len(contexts)):
            expected = ml.detect(channels[sc], received[sc], noise_var).indices
            assert np.array_equal(indices[sc], expected)
            assert metadata[sc]["deactivated_path_evaluations"] == 0


class TestLevelPickBoundaries:
    """One level of the core against ``kth_symbol_indices``, at the
    points where the triangle selection could go either way."""

    @staticmethod
    def one_level_plan(ordering, ranks):
        """A plan for a single level whose grid point *is* the input."""
        ranks = np.asarray(ranks, dtype=np.int64)[None, None, None, :]
        offsets, swap_delta = ordering.path_offsets(ranks, NUMPY)
        return _StackedContexts(
            q_conj=None,
            inverse_permutation=None,
            to_grid=np.ones((1, 1, 1)),
            rows=np.zeros((1, 1, 2, 2)),
            weights=np.ones((1, 1)),
            offsets=offsets,
            swap_delta=swap_delta,
            positions=None,
        )

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_picks_match_the_public_lookup(self, order):
        constellation = QamConstellation(order)
        ordering = ORDERINGS[order]
        detector = FlexCoreDetector(
            MimoSystem(1, 1, constellation), 1, ordering=ordering
        )
        axis = boundary_axis(constellation.side)
        real, imag = (grid.reshape(-1) for grid in np.meshgrid(axis, axis))
        # The lookup divides by the scale; keep points that survive.
        effective = (real + 1j * imag) * constellation.scale
        exact = (effective / constellation.scale) == (real + 1j * imag)
        assert exact.sum() > exact.size // 2
        real, imag, effective = real[exact], imag[exact], effective[exact]
        # Ranks 0 and > max_rank are out of range: always deactivated.
        ranks = np.arange(0, ordering.max_rank + 3)

        expected = ordering.kth_symbol_indices(
            effective[:, None], np.broadcast_to(ranks, (effective.size, ranks.size))
        )
        planes = np.stack([real, imag], axis=1)[None, :, None, :]
        plan = self.one_level_plan(ordering, ranks)
        symbols, ped, dead = detector._walk(
            planes, plan, NUMPY, NULL_COUNTER, False
        )
        assert_same_walk(
            (symbols, ped, dead),
            split.walk(detector, planes, plan, NULL_COUNTER, False),
        )
        assert np.array_equal(dead[0], expected < 0)
        assert dead[0][:, [0, -1, -2]].all()
        assert not dead[0][:, 1].any(), "rank 1 never deactivates"
        picked = detector._symbol_indices(symbols, NUMPY)[0, :, 0]
        alive = ~dead[0]
        assert np.array_equal(picked[alive], expected[alive])
        # Eq. 1 with unit weight, in grid units.
        points = constellation.points[picked] / constellation.scale
        distance = np.abs((real + 1j * imag)[:, None] - points) ** 2
        assert np.allclose(ped[0][alive], distance[alive], rtol=1e-12, atol=0.0)


class TestCoreIsShapeBlind:
    """Bit-identical tensors however the same elements are presented."""

    def setup_method(self):
        self.system = MimoSystem(6, 6, QamConstellation(16))
        self.detector = SoftFlexCoreDetector(
            self.system, 24, ordering=ORDERINGS[16]
        )
        channels, self.received, self.noise_var = make_block(
            self.system, 4, 9, 12.0, 99
        )
        self.contexts = self.detector.prepare_many(channels, self.noise_var)

    def walk(self, contexts, received, frames=slice(None)):
        # Rotation happens once per call, before any chunking: only the
        # walk sees a subset of frames.
        ((_, _, plan),) = self.detector._plans(contexts, NUMPY, None, None)
        planes = plan.grid_planes(np.matmul(received, plan.q_conj))
        return self.detector._walk(
            planes[:, frames], plan, NUMPY, NULL_COUNTER, False
        )

    def test_alone_vs_stacked_vs_sliced_frames(self):
        stacked = self.walk(self.contexts, self.received)
        for sc, context in enumerate(self.contexts):
            alone = self.walk([context], self.received[sc : sc + 1])
            for whole, part in zip(stacked, alone):
                assert np.array_equal(whole[sc : sc + 1], part)
        for frames in [slice(0, 1), slice(1, 4), slice(4, 9)]:
            sliced = self.walk(self.contexts, self.received, frames)
            for whole, part in zip(stacked, sliced):
                assert np.array_equal(whole[:, frames], part)

    @pytest.mark.parametrize("limit", [1, 600, 5000, 40000])
    def test_every_chunk_size(self, limit, monkeypatch):
        args = (self.contexts, self.received, self.noise_var)
        expected = self.detector.detect_soft_block_prepared(*args)
        hard = self.detector.detect_block_prepared(*args[:2])
        monkeypatch.setattr(detector_module, "MAX_CHUNK_ELEMENTS", limit)
        indices, llrs, metadata = self.detector.detect_soft_block_prepared(*args)
        assert np.array_equal(indices, expected[0])
        assert np.array_equal(llrs, expected[1])
        assert metadata == expected[2]
        again = self.detector.detect_block_prepared(*args[:2])
        assert np.array_equal(again[0], hard[0]) and again[1] == hard[1]

    @pytest.mark.parametrize("budget", [1, 7, 23])
    def test_clamped_resident_plan_vs_plan_built_at_the_budget(self, budget):
        store = ResidentContextStore()
        args = (self.received, self.noise_var)
        self.detector.detect_soft_block_prepared(
            self.contexts, *args, store=store
        )
        sliced = self.detector.detect_soft_block_prepared(
            self.contexts, *args, store=store, max_paths=budget
        )
        assert store.stats.hits == 1 and store.stats.misses == 1
        rebuilt = self.detector.detect_soft_block_prepared(
            [clamped(context, budget) for context in self.contexts], *args
        )
        assert np.array_equal(sliced[0], rebuilt[0])
        assert np.array_equal(sliced[1], rebuilt[1])
        assert sliced[2] == rebuilt[2]
        hard = self.detector.detect_block_prepared(
            self.contexts, self.received, store=store, max_paths=budget
        )
        assert np.array_equal(hard[0], sliced[0])


class TestTheTiledWalkIsItsContiguousCopy:
    """The portable walk on a strided view of a plan — a path budget, a
    run of subcarriers, one tile of :func:`tile_shape` — returns the
    tensors it returns on the contiguous copy, and the tiles of a block
    put back together are the untiled walk, bit for bit."""

    def setup_method(self):
        system = MimoSystem(6, 6, QamConstellation(16))
        self.detector = SoftFlexCoreDetector(system, 24, ordering=ORDERINGS[16])
        channels, received, noise_var = make_block(system, 5, 9, 12.0, 99)
        contexts = self.detector.prepare_many(channels, noise_var)
        ((_, _, self.plan),) = self.detector._plans(contexts, NUMPY, None, None)
        self.planes = self.plan.grid_planes(np.matmul(received, self.plan.q_conj))

    def walk(self, plan, planes):
        return [
            np.array(tensor)
            for tensor in self.detector._walk(planes, plan, NUMPY, FlopCounter(), False)
        ]

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

    @staticmethod
    def assert_bit_identical(got, expected):
        for ours, theirs in zip(got, expected):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(np.signbit(got[0]), np.signbit(expected[0]))

    @pytest.mark.parametrize("budget", [1, 7, 23])
    def test_a_clamped_plan_is_its_contiguous_copy(self, budget):
        clamped_plan = self.plan.clamp(budget)
        assert not clamped_plan.offsets.flags.c_contiguous
        self.assert_bit_identical(
            self.walk(clamped_plan, self.planes),
            self.walk(self.contiguous(clamped_plan), self.planes),
        )

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(1, 4), slice(3, 5)])
    def test_a_tile_of_subcarriers_is_its_contiguous_copy(self, rows):
        part = self.plan.subcarriers(rows).clamp(19)
        assert not part.swap_delta.flags.c_contiguous
        whole = self.walk(self.plan.clamp(19), self.planes)
        got = self.walk(part, self.planes[rows])
        self.assert_bit_identical(got, self.walk(self.contiguous(part), self.planes[rows]))
        self.assert_bit_identical(got, [tensor[rows] for tensor in whole])

    @pytest.mark.parametrize("limit", [1, 7, 600, 5000, 40000, 1 << 18, 1 << 23])
    def test_every_tile_limit(self, limit, monkeypatch):
        expected = self.walk(self.plan, self.planes)
        monkeypatch.setattr(detector_module, "MAX_CHUNK_ELEMENTS", limit)
        got = [np.full_like(tensor, 1) for tensor in expected]
        tiles = 0
        for rows, cols, *tile in self.detector._walk_tiles(
            self.plan, self.planes, NUMPY, FlopCounter(), False, WalkWorkspace()
        ):
            tiles += 1
            for whole, part in zip(got, tile):
                whole[rows, cols] = part
        # One tile per (subcarrier, frame) cell while a frame's 24 paths
        # overflow the tile, one per subcarrier at 5000, one in all above.
        assert tiles == (45 if limit <= 600 else 5 if limit == 5000 else 1)
        self.assert_bit_identical(got, expected)
