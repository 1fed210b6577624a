"""The fused lane — ``native.kernel().detect_group``, one call per
equal-path group — against its oracle, the portable lane: the level
loop ``_walk`` (numpy passes, BLAS's summation order) and the reductions
off the fused lane (``_winner`` / ``_symbol_indices`` / ``_labels`` /
``_list_llrs`` / ``restore_order``).  The lanes differ only by the
summation order of the interference product, so dead and clamped
counts, FLOP and comparison charges are equal; distances — hence LLRs —
agree within the 64 ulp of ``tests/conftest.py::distance_bound``; and decisions are
equal but where the portable lane's best distances lie that close — a
tie, rare, where the fused pick is one of the tied paths.  With no
interference nothing is summed and the lanes agree to the bit.  The
fused lane is bit-identical *to itself* however a group is strided,
clamped, cut or entered.  No candidate tensor leaves the call, and none
is carved.

Skips only where ``repro.native.status()`` reports no compiler.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.flexcore.detector import FlexCoreDetector, WalkWorkspace, _StackedContexts
from repro.flexcore.ordering import TriangleOrdering
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.residency import ResidentContextStore
from repro.runtime.service import clamp_context_paths
from repro.utils.flops import FlopCounter
from repro.utils.xp import resolve_array_module
from tests.conftest import distance_bound, make_block, portable_lane
from tests.flexcore.test_walk_equivalence import boundary_axis, build
from tests.flexcore.test_workspace import peak_kib_of_a_warm_call

pytestmark = pytest.mark.skipif(
    native.status()["lane"] != "native",
    reason=f"no native lane here: {native.status()['reason']}",
)

NUMPY = resolve_array_module("numpy")
# 1024-QAM: labels no longer fit a byte on the portable list.
ORDERINGS = {order: TriangleOrdering(QamConstellation(order)) for order in (4, 16, 64, 256, 1024)}
NOISE_VAR = 0.37


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


def group(order, num_streams, shape, paths, seed, quiet=False):
    """A soft detector and a synthetic ``(G, F, P)`` group whose plan
    carries a stream permutation per subcarrier."""
    rng = np.random.default_rng(seed)
    plan, planes = synthetic(order, num_streams, *shape, paths, rng, quiet)
    order_of = np.stack([rng.permutation(num_streams) for _ in range(shape[0])])
    detector = detector_for(order, num_streams, SoftFlexCoreDetector)
    return detector, replace(plan, inverse_permutation=order_of), planes


def fused(detector, plan, planes, soft, counter=None, scratch=None):
    """``(indices, llrs, counts)`` of the one native call."""
    counter = FlopCounter() if counter is None else counter
    scratch = WalkWorkspace() if scratch is None else scratch
    extra = (NOISE_VAR, detector.llr_clip) if soft else ()
    return detector._decide(plan, planes, NUMPY, counter, scratch, *extra)


def portable(detector, plan, planes, soft, counter=None):
    """The same three from the portable lane — the level loop and the
    reductions ``_detect_group`` / ``_detect_soft_group`` apply to it —
    and the walk's every candidate: its decisions ``(G, F, Nt, P)`` in
    stream order and its distances ``(G, F, P)``."""
    counter = FlopCounter() if counter is None else counter
    num_groups, frames, num_streams, _ = planes.shape
    bits = detector.system.constellation.bits_per_symbol
    if frames == 0:  # a block without frames has no tiles
        empty = np.empty((num_groups, 0, num_streams), dtype=np.int64)
        llrs = np.empty((num_groups, 0, num_streams * bits)) if soft else None
        nothing = np.empty((num_groups, 0, num_streams, plan.paths), dtype=np.int64)
        return (empty, llrs, np.zeros(num_groups, dtype=np.int64)), nothing, np.empty((0,))
    scratch = WalkWorkspace()
    symbols, ped, dead = detector._walk(planes, plan, NUMPY, counter, False, scratch)
    # A NaN pick casts to no cell; inf - inf, where both hypotheses are missing.
    with np.errstate(invalid="ignore"):
        labels = detector._labels(symbols, NUMPY, scratch)
        candidates = plan.restore_order(labels.astype(np.int64))
        if not soft:
            winners = detector._winner(symbols, ped)
            indices = plan.restore_order(detector._symbol_indices(winners, NUMPY))
            return (indices, None, np.count_nonzero(dead, axis=(1, 2))), candidates, ped.copy()
        heads, llrs, missing = detector._list_llrs(labels, ped, NOISE_VAR, scratch)
    counter.add_comparisons(ped.size * num_streams * bits)
    by_stream = llrs.reshape(num_groups, frames, num_streams, bits)
    decided = (
        plan.restore_order(heads),
        plan.restore_order(by_stream).reshape(llrs.shape),
        np.count_nonzero(missing, axis=(1, 2)),
    )
    return decided, candidates, ped.copy()


def assert_same_decisions(got, expected):
    """Bit for bit, down to the sign of a zero LLR."""
    for ours, theirs in zip(got, expected):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)
    if got[1] is not None:
        assert np.array_equal(np.signbit(got[1]), np.signbit(expected[1]))


def assert_agree(got, oracle, weights) -> int:
    """The fused lane's ``(indices, llrs, counts)`` against
    :func:`portable`'s ``oracle``: counts equal; a frame's fused pick is
    the portable one, or one whose portable distance is within the two
    lanes' bounds of the best (a tie); LLRs within twice the bound of the
    frame's largest finite distance, over the noise variance.  Returns
    how many frames were ties."""
    expected, candidates, ped = oracle
    for ours, theirs in zip(got, expected):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(got[2], expected[2])
    if not ped.size:
        return 0
    best = ped.min(axis=2, keepdims=True)
    with np.errstate(invalid="ignore"):  # inf - inf: every path of the frame is dead
        tied = (ped == best) | (ped - best <= 2 * distance_bound(ped, weights))
    picked = (candidates == got[0][..., None]).all(axis=2)
    assert (picked & tied).any(axis=2).all(), "the fused pick is one of the tied paths"
    others = tied & ~(candidates == expected[0][..., None]).all(axis=2)
    ties = others.any(axis=2)
    assert np.array_equal(got[0][~ties], expected[0][~ties])
    if got[1] is not None:
        finite = np.where(np.isfinite(ped), ped, 0.0).max(axis=2, keepdims=True)
        slack = 2 * distance_bound(finite, weights) / NOISE_VAR
        assert (np.abs(got[1] - expected[1]) <= slack).all()
    return int(ties.sum())


#: ``(order, Nt, (G, F), P, soft)`` of one block of each benchmark
#: workload, and the MFLOP of its walk: only ``warm_walk``'s reaches the
#: floor, six times over.
WORKLOADS = {
    "warm_walk": (64, 12, (64, 7), 128, False),  # 26.1
    "soft_llr": (16, 8, (64, 7), 32, True),  # 3.0
    "cold_mobility": (16, 8, (64, 2), 64, False),  # 1.7
    "paced_farm": (16, 8, (8, 7), 64, False),  # 0.75
    "fleet_2w": (16, 8, (8, 7), 64, False),  # 0.75
}


def count_submits(call) -> tuple:
    """``call()``'s result and how many runs it handed to the PE pool."""
    pool, submits = native.pool, []

    class Counting:
        def submit(self, *args):
            submits.append(args)
            return pool().submit(*args)

    with mock.patch.object(native, "pool", Counting):
        result = call()
    return result, len(submits)


#: The property test's inputs.
ORDERS = [4, 16, 64, 256, 1024]
PATHS = [1, 2, 3, 17, 64, 129, 1500]
SHAPES = [(1, 1), (1, 4), (3, 1), (2, 3), (5, 2), (2, 0)]


def wide(plan):
    """The plan with the kernel's other item size."""
    return replace(
        plan, offsets=plan.offsets.astype(np.int16), swap_delta=plan.swap_delta.astype(np.int16)
    )


class TestAgainstThePortableReductions:
    @settings(max_examples=120, deadline=None)
    @given(
        order=st.sampled_from(ORDERS),
        num_streams=st.integers(2, 12),
        paths=st.sampled_from(PATHS),
        shape=st.sampled_from(SHAPES),
        soft=st.booleans(),
        widen=st.booleans(),
        quiet=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_indices_llrs_counts_and_charges(
        self, order, num_streams, paths, shape, soft, widen, quiet, seed
    ):
        detector, plan, planes = group(order, num_streams, shape, paths, seed, quiet)
        plan = wide(plan) if widen else plan
        ours, theirs = FlopCounter(), FlopCounter()
        got = fused(detector, plan, planes, soft, ours)
        oracle = portable(detector, plan, planes, soft, theirs)
        assert ours == theirs and (ours.total_flops > 0) == (shape[1] > 0)
        assert_agree(got, oracle, plan.weights)
        if quiet:
            # No interference: nothing is summed, so nothing may differ.
            assert_same_decisions(got, oracle[0])
        if soft:
            assert (np.abs(got[1]) <= detector.llr_clip).all()

    def test_ties_are_rare(self):
        """The property test's inputs with interference, drawn 200 times:
        a frame whose portable distances leave the fused lane a second
        decision within the bound is a tie, and there are few."""
        rng = np.random.default_rng(2017)
        ties = frames = 0
        for _ in range(200):
            shape = SHAPES[rng.integers(len(SHAPES))]
            detector, plan, planes = group(
                ORDERS[rng.integers(len(ORDERS))], int(rng.integers(2, 13)), shape,
                PATHS[rng.integers(len(PATHS) - 1)], int(rng.integers(2**16)),
            )  # fmt: skip
            soft = bool(rng.integers(2))
            got = fused(detector, plan, planes, soft)
            ties += assert_agree(got, portable(detector, plan, planes, soft), plan.weights)
            frames += shape[0] * shape[1]
        assert frames > 500 and ties <= frames // 100

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_the_boundary_grid_and_out_of_range_ranks(self, order):
        """Every pair of ``boundary_axis`` coordinates (±0.0, half
        integers, ``|dx| == |dy|``, far outside) under every rank, the
        sentinel offsets of ranks 0 and > max_rank included: one level,
        no interference — the lanes agree to the bit, hard and soft."""
        ordering = ORDERINGS[order]
        detector = detector_for(order, 1, SoftFlexCoreDetector)
        axis = boundary_axis(QamConstellation(order).side)
        real, imag = (grid.reshape(-1) for grid in np.meshgrid(axis, axis))
        planes = np.stack([real, imag], axis=1)[None, :, None, :]
        ranks = np.arange(0, ordering.max_rank + 3)[None, None, None, :]
        offsets, swap_delta = ordering.path_offsets(ranks, NUMPY)
        plan = _StackedContexts(
            None, np.zeros((1, 1), dtype=np.int64), np.ones((1, 1, 1)), np.zeros((1, 1, 2, 2)),
            np.ones((1, 1)), offsets, swap_delta, None,
        )  # fmt: skip
        for soft in (False, True):
            assert_same_decisions(
                fused(detector, plan, planes, soft), portable(detector, plan, planes, soft)[0]
            )
        # The three sentinels deactivate on every frame, rank 1 on none.
        assert fused(detector, plan, planes, False)[2][0] >= 3 * len(real)

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("budget", [1, 7, 23])
    def test_a_clamped_cut_plan_is_its_contiguous_copy(self, budget, soft):
        detector, plan, planes = group(16, 6, (5, 4), 24, 11)
        part = plan.subcarriers(slice(1, 4)).clamp(budget)
        assert not part.offsets.flags.c_contiguous
        copy = replace(
            part,
            offsets=np.ascontiguousarray(part.offsets),
            swap_delta=np.ascontiguousarray(part.swap_delta),
        )
        got = fused(detector, part, planes[1:4], soft)
        assert_same_decisions(got, fused(detector, copy, planes[1:4], soft))
        whole = fused(detector, plan.clamp(budget), planes, soft)
        assert_same_decisions(got, [None if x is None else x[1:4] for x in whole])
        assert_agree(got, portable(detector, part, planes[1:4], soft), part.weights)

    def test_every_path_deactivated(self):
        """Sentinel offsets on every path: the head is path 0 (whose
        clipped picks are symbols all the same), both hypotheses of
        every bit are missing and zero's ``-llr_clip`` wins."""
        detector, plan, planes = group(64, 3, (2, 3), 5, 8)
        offsets, swap_delta = ORDERINGS[64].path_offsets(
            np.zeros((3, 2, 1, 5), dtype=np.int64), NUMPY
        )
        plan = replace(plan, offsets=offsets, swap_delta=swap_delta)
        hard, soft = fused(detector, plan, planes, False), fused(detector, plan, planes, True)
        assert_same_decisions(hard, portable(detector, plan, planes, False)[0])
        assert_same_decisions(soft, portable(detector, plan, planes, True)[0])
        assert np.array_equal(hard[0], soft[0])
        assert hard[2].tolist() == [3 * 5] * 2
        assert (soft[1] == -detector.llr_clip).all()
        assert soft[2].tolist() == [3 * 3 * 6] * 2

    def test_exact_ties_go_to_the_first_path(self):
        """The four corners of a detection square, from its centre: four
        equal distances, and path 0 is not the rank-1 pick."""
        detector = detector_for(16, 1, SoftFlexCoreDetector)
        _, plan, _ = group(16, 1, (1, 1), 4, 0, quiet=True)
        ranks = np.array([3, 1, 4, 2])[None, None, None, :]
        offsets, swap_delta = ORDERINGS[16].path_offsets(ranks, NUMPY)
        plan = replace(plan, offsets=offsets, swap_delta=swap_delta)
        planes = np.zeros((1, 1, 1, 2))
        symbols, ped, dead = detector._walk(planes, plan, NUMPY, FlopCounter(), False)
        assert not dead.any() and np.unique(ped).size == 1
        assert len({tuple(symbols[0, 0, :, p]) for p in range(4)}) == 4
        first = detector._symbol_indices(symbols[..., 0], NUMPY)
        for soft in (False, True):
            got = fused(detector, plan, planes, soft)
            assert np.array_equal(got[0], first)
            assert_same_decisions(got, portable(detector, plan, planes, soft)[0])
        # Equal minima where both hypotheses are held: +0.0, never -0.0.
        measured = got[1][np.abs(got[1]) < detector.llr_clip]
        assert measured.size == 2 and not measured.any() and not np.signbit(measured).any()

    def test_nan_and_inf_received(self):
        """NaN deactivates every path of its frame (the picks are NaN:
        cell 0, as the portable list's clipping ``take`` reads them);
        inf is infinitely far on every path and deactivates none."""
        detector, plan, planes = group(16, 3, (2, 4), 17, 5)
        planes[0, 1, 2, 0] = np.nan
        planes[1, 2, 1, 1] = np.inf
        planes[1, 3, 0, 0] = -np.inf
        soft = fused(detector, plan, planes, True)
        assert_agree(soft, portable(detector, plan, planes, True), plan.weights)
        hard = fused(detector, plan, planes, False)
        assert np.array_equal(hard[0], soft[0])
        assert hard[2][0] >= 17 and (np.abs(soft[1][0, 1]) == detector.llr_clip).all()
        assert (np.abs(soft[1][1, 2:]) == detector.llr_clip).all()


class TestThroughTheEntryPoints:
    """Real contexts, ragged groups, budget clamps: the detector's four
    entry points on the fused lane."""

    @pytest.mark.parametrize("kind", ["full", "early-stop"])
    @pytest.mark.parametrize("budget", [None, 9])
    def test_per_channel_equals_stacked(self, kind, budget):
        system = MimoSystem(6, 6, QamConstellation(16))
        detector = build(kind, True, system, 24)
        channels, received, noise_var = make_block(system, 7, 5, 9.0, 41)
        contexts = detector.prepare_many(channels, noise_var)
        store = ResidentContextStore()
        hard = detector.detect_block_prepared(contexts, received, store=store, max_paths=budget)
        soft = detector.detect_soft_block_prepared(
            contexts, received, noise_var, store=store, max_paths=budget
        )
        assert set(store.scratch(WalkWorkspace)._flat) == {"kernel"}
        for sc, context in enumerate(contexts):
            context = clamp_context_paths(context, budget)
            alone = detector.detect_prepared(context, received[sc])
            assert np.array_equal(alone.indices, hard[0][sc]) and alone.metadata == hard[1][sc]
            alone = detector.detect_soft_prepared(context, received[sc], noise_var)
            assert np.array_equal(alone.indices, soft[0][sc])
            assert np.array_equal(alone.llrs, soft[1][sc])
            assert np.array_equal(np.signbit(alone.llrs), np.signbit(soft[1][sc]))
            assert alone.metadata == soft[2][sc]

    def test_charges_and_metadata_equal_the_portable_lanes(self):
        detector = detector_for(16, 6, SoftFlexCoreDetector, 24)
        channels, received, noise_var = make_block(detector.system, 5, 9, 12.0, 99)
        contexts = detector.prepare_many(channels, noise_var)
        for soft in (False, True):
            counters = [FlopCounter() for _ in range(3)]
            if soft:
                call, alone = detector.detect_soft_block_prepared, detector.detect_soft_prepared
                args = (noise_var,)
            else:
                call, alone, args = detector.detect_block_prepared, detector.detect_prepared, ()
            ours = call(contexts, received, *args, counter=counters[0])
            with portable_lane():
                theirs = call(contexts, received, *args, counter=counters[1])
            for context, frames in zip(contexts, received):
                alone(context, frames, *args, counter=counters[2])
            assert counters[0] == counters[1] == counters[2]
            assert counters[0].total_flops > 0 and (counters[0].comparisons > 0) == soft
            assert ours[-1] == theirs[-1] and np.array_equal(ours[0], theirs[0])

    def test_the_exact_ordering_ablation_stays_off_the_hard_fused_lane(self):
        system = MimoSystem(3, 3, QamConstellation(16))
        detector = FlexCoreDetector(system, 8, use_exact_ordering=True)
        channels, received, noise_var = make_block(system, 2, 3, 10.0, 1)
        store = ResidentContextStore()
        detector.detect_block_prepared(
            detector.prepare_many(channels, noise_var), received, store=store
        )
        assert "kernel" not in store.scratch(WalkWorkspace)._flat

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize(
        "subcarriers, pes, gates", [(8, 1, (24.0, 56.0)), (64, 2, (160.0, 420.0))],
        ids=["one-run", "warm_walk-over-two-PEs"],
    )  # fmt: skip
    def test_a_warm_call_allocates_nothing_with_a_path_axis(self, soft, subcarriers, pes, gates):
        """One run: the walk's own gate is 24 KiB (``half`` is 10.5, the
        indices 5.25); the soft call also owns its (8, 7, 72) LLRs, 31.5
        KiB — still less than one (8, 7, 128) float64 path plane, 56 KiB.
        ``warm_walk``'s group over two PEs, each run on its row of the
        one ``kernel`` buffer: ``half`` is 84 KiB, the indices 42, the
        LLRs 252 — less than one (64, 7, 128) path plane, 448 KiB."""
        scratch = WalkWorkspace()
        detector, plan, planes = group(64, 12, (subcarriers, 7), 128, 3)
        with mock.patch.object(native, "pes", lambda: pes):
            _, submits = count_submits(lambda: fused(detector, plan, planes, soft, scratch=scratch))
            peak = peak_kib_of_a_warm_call(
                lambda: fused(detector, plan, planes, soft, scratch=scratch)
            )
        assert submits == pes - 1
        assert peak < gates[soft]
        assert set(scratch._flat) == {"kernel"}


class TestRunsOverThePEs:
    """``_decide`` cuts a group along ``G`` into runs over the PE pool:
    any cut is the one call, bit for bit, and only a walk of
    ``RUN_FLOPS`` per run is cut at all."""

    @settings(max_examples=80, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64, 256]),
        num_streams=st.integers(2, 8),
        subcarriers=st.integers(1, 17),
        frames=st.integers(0, 4),
        paths=st.sampled_from([1, 3, 17, 64]),
        budget=st.one_of(st.none(), st.integers(1, 63)),
        soft=st.booleans(),
        pes=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_any_cut_is_the_one_call(
        self, order, num_streams, subcarriers, frames, paths, budget, soft, pes, seed
    ):
        detector, plan, planes = group(order, num_streams, (subcarriers, frames), paths, seed)
        plan = plan.clamp(budget)
        ours, theirs = FlopCounter(), FlopCounter()
        with mock.patch.object(native, "pes", lambda: 1):
            expected = fused(detector, plan, planes, soft, theirs)
        with mock.patch.object(native, "pes", lambda: pes), mock.patch.object(native, "RUN_FLOPS", 1):
            got, submits = count_submits(lambda: fused(detector, plan, planes, soft, ours))
        assert_same_decisions(got, expected)
        assert ours == theirs
        runs = min(pes, subcarriers) if frames else 1
        assert submits == runs - 1

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_only_a_walk_above_the_floor_fans_out(self, workload):
        detector, plan, planes = group(*WORKLOADS[workload][:4], 7)
        _, submits = count_submits(lambda: fused(detector, plan, planes, WORKLOADS[workload][4]))
        fans_out = workload == "warm_walk"
        assert submits == (min(native.pes(), 6) - 1 if fans_out else 0)


class TestTheOp:
    def test_only_numpy_with_a_kernel_has_it(self):
        """The op is the kernel's, bound once, and nothing else's: no
        array module carries it, and the portable lane has no kernel."""
        kernel = native.kernel()
        assert kernel.detect_group is native.kernel().detect_group
        assert not hasattr(NUMPY, "detect_group")
        with portable_lane():
            assert native.kernel() is None
        assert native.kernel() is kernel

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_the_kernel_is_the_lane_switch(self, soft):
        """``native.kernel()`` alone picks the walk's lane: forced to
        ``None`` a stacked call walks the level loop, whose workspace
        has no ``kernel`` row; else it makes the fused call."""
        cls = SoftFlexCoreDetector if soft else FlexCoreDetector
        detector = detector_for(16, 3, cls=cls, paths=8)
        channels, received, noise_var = make_block(detector.system, 2, 3, 10.0, 1)
        contexts = detector.prepare_many(channels, noise_var)
        if soft:
            call, args = detector.detect_soft_block_prepared, (noise_var,)
        else:
            call, args = detector.detect_block_prepared, ()
        store = ResidentContextStore()
        with portable_lane():
            call(contexts, received, *args, store=store)
        assert "kernel" not in store.scratch(WalkWorkspace)._flat
        call(contexts, received, *args, store=store)
        assert "kernel" in store.scratch(WalkWorkspace)._flat

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda plan: replace(plan, offsets=plan.offsets.astype(np.int64)),
            lambda plan: replace(plan, rows=plan.rows[:, :, :, ::-1]),
            lambda plan: replace(plan, weights=plan.weights[:1]),
            lambda plan: replace(
                plan, inverse_permutation=plan.inverse_permutation.astype(np.int32)
            ),
            lambda plan: replace(plan, inverse_permutation=plan.inverse_permutation[:, ::-1]),
            lambda plan: replace(plan, inverse_permutation=plan.inverse_permutation + 1),
            lambda plan: replace(plan, inverse_permutation=plan.inverse_permutation - 1),
            lambda plan: replace(plan, inverse_permutation=plan.inverse_permutation[:, :2]),
            lambda plan: plan.clamp(0),
        ],
    )
    def test_it_refuses_what_is_not_the_walks_layout(self, wrong):
        detector, plan, planes = group(16, 3, (2, 2), 5, 0)
        with pytest.raises(ValueError, match="layout"):
            fused(detector, wrong(plan), planes, True)

    def test_it_refuses_buffers_of_the_wrong_size_or_type(self):
        detector, plan, planes = group(16, 3, (2, 2), 5, 0)
        table = detector.system.constellation.grid_index_table
        good = dict(
            inverse=plan.inverse_permutation, table=table,
            indices=np.empty((2, 2, 3), dtype=np.int64), llrs=np.empty((2, 2, 12)),
            counts=np.empty(2, dtype=np.int64), scratch=np.empty(24 * 5),
        )  # fmt: skip
        bad = dict(
            table=table[:, :3], indices=np.empty((2, 2, 3), dtype=np.int32),
            llrs=np.empty((2, 2, 11)), counts=np.empty(3, dtype=np.int64),
            scratch=np.empty(24 * 5 - 1),
        )  # fmt: skip

        def call(**buffers):
            b = {**good, **buffers}
            native.kernel().detect_group(
                planes * 0.5, plan.rows, plan.weights, plan.offsets, plan.swap_delta,
                1.0, 1.5, b["inverse"], b["table"], NOISE_VAR, 4.0,
                b["indices"], b["llrs"], b["counts"], b["scratch"],
            )  # fmt: skip

        call()
        for name, buffer in bad.items():
            with pytest.raises(ValueError, match="layout"):
                call(**{name: buffer})
