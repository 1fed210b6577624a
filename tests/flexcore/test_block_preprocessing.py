"""Block ≡ per-channel equivalence for the batched pre-processing search.

``find_promising_paths_block`` promises **bit- and FLOP-identity** with
``find_promising_paths`` run once per channel: same position vectors in
the same expansion order, the same probabilities (exact float equality —
the block path performs the same IEEE operations), and the same
``real_multiplications`` / ``candidate_peak`` / ``stopped_early``
accounting.  This module pins that promise across a hypothesis grid of
random ``Pe`` vectors, QAM orders, stopping thresholds, expansion batch
sizes, and ragged per-channel early stops — widened to the shapes
production runs (``Nt`` up to 12, 64-channel blocks) and to the regimes
where only the tie-break decides the order — and checks the block search
against the exhaustive ``brute_force_top_paths`` as an oracle that
shares no code with either search.

Every class but ``TestResultMemory`` runs on both lanes
(``tests/conftest.py::lane``): ``portable`` is the numpy slab, ``native``
the heap of ``repro/native/search.c``; ``TestNativeLane`` pins the
kernel to the slab on the shapes production runs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import native
from repro.channel.fading import rayleigh_channels
from repro.errors import ConfigurationError, DimensionError
from repro.flexcore import preprocessing
from repro.flexcore.preprocessing import (
    brute_force_top_paths,
    find_promising_paths,
    find_promising_paths_block,
)
from repro.flexcore.probability import _PE_MAX, _PE_MIN, LevelErrorModel
from repro.mimo.qr import stacked_sorted_qr
from repro.modulation.constellation import QamConstellation
from repro.utils.flops import FlopCounter


# The lane is patched once for all of a test's examples, as meant.
LANE = [HealthCheck.function_scoped_fixture]


def assert_results_identical(serial, block):
    """The full bit- and FLOP-identity contract, field by field."""
    assert np.array_equal(serial.position_vectors, block.position_vectors)
    assert serial.position_vectors.dtype == block.position_vectors.dtype
    # Bit for bit, signed zeros included: identical IEEE operations.
    assert serial.probabilities.tobytes() == block.probabilities.tobytes()
    assert serial.expanded_nodes == block.expanded_nodes
    assert serial.real_multiplications == block.real_multiplications
    assert serial.candidate_peak == block.candidate_peak
    assert serial.stopped_early == block.stopped_early


def run_both(pe_block, num_paths, max_rank, stop_threshold, batch_size):
    """(serial results, block results, serial FLOPs, block FLOPs)."""
    serial_counter, block_counter = FlopCounter(), FlopCounter()
    per_channel = [
        find_promising_paths(
            LevelErrorModel(pe=pe_block[c]),
            num_paths,
            max_rank,
            stop_threshold=(
                stop_threshold[c]
                if isinstance(stop_threshold, (list, np.ndarray))
                else stop_threshold
            ),
            batch_size=batch_size,
            counter=serial_counter,
        )
        for c in range(pe_block.shape[0])
    ]
    block = find_promising_paths_block(
        pe_block,
        num_paths,
        max_rank,
        stop_threshold=(
            np.asarray(stop_threshold, dtype=np.float64)
            if isinstance(stop_threshold, (list, np.ndarray))
            else stop_threshold
        ),
        batch_size=batch_size,
        counter=block_counter,
    )
    return per_channel, block, serial_counter, block_counter


@pytest.mark.usefixtures("lane")
class TestHypothesisGrid:
    @given(
        pe_rows=st.lists(
            st.lists(st.floats(0.01, 0.6), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        ),
        num_paths=st.integers(1, 40),
        max_rank=st.sampled_from([2, 4, 8]),  # QPSK / 16-QAM / 64-QAM
        batch_size=st.integers(1, 8),
        threshold=st.one_of(st.none(), st.floats(0.2, 1.0)),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=LANE)
    def test_block_matches_per_channel(
        self, pe_rows, num_paths, max_rank, batch_size, threshold
    ):
        pe_block = np.asarray(pe_rows, dtype=np.float64)
        per_channel, block, serial_counter, block_counter = run_both(
            pe_block, num_paths, max_rank, threshold, batch_size
        )
        assert len(block) == pe_block.shape[0]
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)
        assert serial_counter.real_mults == block_counter.real_mults

    @given(
        seed=st.integers(0, 2**31),
        num_levels=st.integers(2, 6),
        num_channels=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=LANE)
    def test_tied_probabilities_expand_in_the_same_order(
        self, seed, num_levels, num_channels
    ):
        """Equal Pe across levels floods the search with exact Pc ties;
        the serial tie-break must reproduce heapq's pop order exactly."""
        rng = np.random.default_rng(seed)
        pe_block = np.tile(
            rng.uniform(0.05, 0.5, size=(num_channels, 1)), (1, num_levels)
        )
        per_channel, block, _, _ = run_both(pe_block, 30, 4, None, 1)
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)


def draw_pe_block(regime, rng, num_channels, num_levels):
    """A ``(C, Nt)`` ``Pe`` block from one of the tie-break regimes."""
    shape = (num_channels, num_levels)
    if regime == "random":
        return rng.uniform(0.001, 0.6, size=shape)
    if regime == "pe_min":  # products underflow to -0.0: whole frontiers tie
        return np.full(shape, _PE_MIN)
    if regime == "pe_max":
        return np.full(shape, _PE_MAX)
    if regime == "equal_levels":  # one Pe per channel on every level
        return np.tile(rng.uniform(0.05, 0.5, size=(num_channels, 1)), num_levels)
    if regime == "near_floor":  # at and just above the floor, and what
        # takes a floor-sized key down across the subnormal range
        kinds = rng.integers(0, 4, size=shape)
        return np.choose(kinds, [np.full(shape, _PE_MIN),
                                 _PE_MIN * 10 ** rng.uniform(0, 8, size=shape),
                                 10 ** rng.uniform(-24, -1, size=shape),
                                 rng.uniform(0.05, 0.5, size=shape)])  # fmt: skip
    # A few values shared by several levels, the clip bounds among them.
    return rng.choice([_PE_MIN, 1e-9, 0.25, 0.5, _PE_MAX], size=shape)


def draw_thresholds(mode, rng, num_channels):
    if mode == "none":
        return None
    if mode == "scalar":
        return float(rng.uniform(0.1, 1.0))
    thresholds = rng.uniform(0.0, 1.1, size=num_channels)
    thresholds[rng.random(num_channels) < 0.3] = np.nan
    return thresholds


@pytest.mark.usefixtures("lane")
class TestWidenedGrid:
    @given(
        seed=st.integers(0, 2**31),
        regime=st.sampled_from(
            ["random", "pe_min", "pe_max", "equal_levels", "shared_values", "near_floor"]
        ),
        num_levels=st.integers(2, 12),
        num_channels=st.integers(1, 64),
        max_rank=st.sampled_from([2, 4, 16, 64]),
        num_paths=st.integers(1, 96),
        batch_size=st.sampled_from([1, 1, 2, 5, 13, 16]),
        threshold_mode=st.sampled_from(["none", "none", "scalar", "ragged"]),
    )
    # Pinned, so a run never depends on hypothesis drawing them: the
    # production block shapes under whole-frontier ties, and the
    # masked path with more pops per round than levels.
    @example(0, "pe_min", 8, 64, 16, 64, 1, "none")
    @example(1, "shared_values", 12, 64, 64, 96, 1, "none")
    @example(2, "pe_min", 5, 9, 4, 60, 13, "ragged")
    @example(3, "equal_levels", 12, 17, 2, 96, 5, "scalar")
    @example(4, "pe_max", 3, 4, 64, 50, 16, "ragged")
    @example(5, "near_floor", 8, 64, 16, 64, 1, "none")
    @settings(max_examples=120, deadline=None, suppress_health_check=LANE)
    def test_block_matches_per_channel(
        self,
        seed,
        regime,
        num_levels,
        num_channels,
        max_rank,
        num_paths,
        batch_size,
        threshold_mode,
    ):
        rng = np.random.default_rng(seed)
        pe_block = draw_pe_block(regime, rng, num_channels, num_levels)
        thresholds = draw_thresholds(threshold_mode, rng, num_channels)
        per_channel, block, serial_counter, block_counter = run_both(
            pe_block, num_paths, max_rank, thresholds, batch_size
        )
        assert len(block) == num_channels
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)
        assert serial_counter.real_mults == block_counter.real_mults

    @given(
        seed=st.integers(0, 2**31),
        regime=st.sampled_from(["random", "pe_min", "shared_values", "near_floor"]),
        num_levels=st.integers(2, 4),
        max_rank=st.sampled_from([2, 4]),
        batch_size=st.integers(1, 9),
        threshold_mode=st.sampled_from(["none", "ragged"]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=LANE)
    def test_exhausted_frontiers(
        self, seed, regime, num_levels, max_rank, batch_size, threshold_mode
    ):
        """``num_paths`` past the tree size: every node is selected, the
        frontier runs dry, and with ``batch_size > 1`` channels finish
        on different rounds."""
        rng = np.random.default_rng(seed)
        pe_block = draw_pe_block(regime, rng, 7, num_levels)
        thresholds = draw_thresholds(threshold_mode, rng, 7)
        per_channel, block, serial_counter, block_counter = run_both(
            pe_block, max_rank**num_levels + 5, max_rank, thresholds, batch_size
        )
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)
        if thresholds is None:
            assert all(
                b.expanded_nodes == max_rank**num_levels for b in block
            )
        assert serial_counter.real_mults == block_counter.real_mults


@pytest.mark.usefixtures("lane")
class TestIndependentOracle:
    @pytest.mark.parametrize(
        "num_levels, max_rank, num_paths",
        [(2, 64, 200), (3, 16, 150), (4, 8, 64), (6, 4, 300), (12, 2, 128)],
    )
    def test_block_selects_the_exhaustive_top_set(
        self, num_levels, max_rank, num_paths
    ):
        """On tie-free ``Pe`` the best-first search must return exactly
        the ``num_paths`` most probable of all ``max_rank**Nt`` position
        vectors, most probable first."""
        rng = np.random.default_rng(num_levels * 1000 + max_rank)
        pe_block = rng.uniform(0.005, 0.45, size=(5, num_levels))
        block = find_promising_paths_block(pe_block, num_paths, max_rank)
        for pe, result in zip(pe_block, block):
            exhaustive = brute_force_top_paths(
                LevelErrorModel(pe=pe), num_paths, max_rank
            )
            assert {tuple(v) for v in result.position_vectors} == {
                tuple(v) for v in exhaustive.position_vectors
            }
            assert np.all(np.diff(result.probabilities) <= 0)
            np.testing.assert_allclose(
                result.probabilities, exhaustive.probabilities, rtol=1e-12
            )


class TestResultMemory:
    @pytest.mark.parametrize("batch_size, threshold", [(1, None), (3, 0.9)])
    def test_results_own_their_arrays(self, batch_size, threshold):
        """A cached result must not be a view pinning the block's key
        slab or its siblings' rows after they are evicted."""
        pe_block = np.random.default_rng(3).uniform(0.01, 0.4, size=(6, 5))
        block = find_promising_paths_block(
            pe_block, 24, 16, stop_threshold=threshold, batch_size=batch_size
        )
        for result in block:
            assert result.position_vectors.base is None
            assert result.probabilities.base is None
            assert result.position_vectors.dtype == np.int64
            assert result.probabilities.dtype == np.float64


@pytest.mark.usefixtures("lane")
class TestRaggedStops:
    def test_per_channel_thresholds_stop_channels_independently(self):
        """Channels crossing their threshold at different rounds sit out
        the remaining lockstep rounds without disturbing the others."""
        pe_block = np.array(
            [
                [1e-6, 1e-6, 1e-6],  # root carries ~all mass: stops round 1
                [0.05, 0.04, 0.03],  # stops after a few rounds
                [0.45, 0.5, 0.4],  # never reaches 0.95: runs to num_paths
            ]
        )
        thresholds = [0.95, 0.95, 0.95]
        per_channel, block, _, _ = run_both(pe_block, 40, 8, thresholds, 1)
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)
        assert [b.stopped_early for b in block] == [True, True, False]
        assert block[0].expanded_nodes < block[2].expanded_nodes

    def test_nan_threshold_entries_disable_the_criterion(self):
        pe_block = np.full((2, 3), 1e-6)
        thresholds = np.array([0.9, np.nan])
        block = find_promising_paths_block(pe_block, 20, 8, thresholds)
        assert block[0].stopped_early
        assert not block[1].stopped_early
        assert block[1].expanded_nodes == 20

    def test_mixed_thresholds_with_batched_expansion(self):
        rng = np.random.default_rng(7)
        pe_block = rng.uniform(0.001, 0.4, size=(5, 4))
        thresholds = [0.5, 0.8, np.nan, 0.99, 0.3]
        per_channel, block, serial_counter, block_counter = run_both(
            pe_block, 25, 4, thresholds, 3
        )
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)
        assert serial_counter.real_mults == block_counter.real_mults


@pytest.mark.usefixtures("lane")
class TestInputs:
    def test_accepts_models_and_pe_stack(self):
        pe_block = np.array([[0.2, 0.3], [0.1, 0.4]])
        models = [LevelErrorModel(pe=row) for row in pe_block]
        from_models = find_promising_paths_block(models, 6, 4)
        from_stack = find_promising_paths_block(pe_block, 6, 4)
        for a, b in zip(from_models, from_stack):
            assert_results_identical(a, b)

    def test_empty_block(self):
        assert find_promising_paths_block([], 8, 4) == []
        assert find_promising_paths_block(np.empty((0, 3)), 8, 4) == []

    def test_count_capped_by_tree_size(self):
        block = find_promising_paths_block(np.array([[0.2, 0.3]]), 100, 3)
        assert block[0].position_vectors.shape[0] == 9

    def test_frontier_growth_past_initial_capacity(self):
        """Wide trees: hundreds of rounds, thousands of slots a channel."""
        pe_block = np.full((2, 8), 0.3)
        per_channel, block, _, _ = run_both(pe_block, 300, 64, None, 1)
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 1e-12, np.inf, -np.inf])
    def test_error_probabilities_outside_zero_one_are_refused(self, bad):
        """A NaN or out-of-range ``Pe`` would order each lane's search
        differently: both lanes and the per-channel heap refuse it."""
        pe_block = np.array([[0.1, 0.2, 0.3], [0.2, 0.1, 0.4]])
        pe_block[1, 1] = bad
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            find_promising_paths_block(pe_block, 8, 4)
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            find_promising_paths(LevelErrorModel(pe=pe_block[1]), 8, 4)
        assert len(find_promising_paths_block(pe_block[:1], 8, 4)) == 1

    def test_the_bounds_themselves_are_probabilities(self):
        pe_block = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 5e-324]])
        per_channel, block, _, _ = run_both(pe_block, 20, 4, None, 1)
        for serial, batched in zip(per_channel, block):
            assert_results_identical(serial, batched)

    def test_invalid_args(self):
        pe_block = np.array([[0.1, 0.2]])
        with pytest.raises(ConfigurationError):
            find_promising_paths_block(pe_block, 0, 4)
        with pytest.raises(ConfigurationError):
            find_promising_paths_block(pe_block, 4, 0)
        with pytest.raises(ConfigurationError):
            find_promising_paths_block(pe_block, 4, 4, batch_size=0)
        with pytest.raises(DimensionError):
            find_promising_paths_block(np.zeros(3), 4, 4)
        with pytest.raises(DimensionError):
            find_promising_paths_block(pe_block, 4, 4, stop_threshold=[0.5, 0.5])


def on_the_slab(*args, **kwargs):
    """``find_promising_paths_block`` with the lane forced portable."""
    forced = ({**native.status(), "lane": "portable"}, None)
    with mock.patch.object(native, "_RESOLVED", forced):
        return find_promising_paths_block(*args, **kwargs)


class TestNativeLane:
    """The heap of ``search.c`` against the slab and the per-channel heap,
    on the cases the grids above reach only by chance."""

    @pytest.fixture(autouse=True)
    def native_lane(self):
        if native.kernel() is None:
            pytest.skip(f"no native lane here: {native.status()['reason']}")

    def assert_all_agree(self, pe_block, num_paths, max_rank, thresholds, batch_size):
        slab_counter, native_counter = FlopCounter(), FlopCounter()
        slab = on_the_slab(pe_block, num_paths, max_rank, thresholds, batch_size, slab_counter)
        with mock.patch.object(preprocessing, "_slab", side_effect=AssertionError):
            block = find_promising_paths_block(
                pe_block, num_paths, max_rank, thresholds, batch_size, native_counter
            )
        per_channel, _, serial_counter, _ = run_both(
            pe_block, num_paths, max_rank, thresholds, batch_size
        )
        for serial, portable, batched in zip(per_channel, slab, block, strict=True):
            assert_results_identical(portable, batched)
            assert_results_identical(serial, batched)
        assert native_counter == slab_counter == serial_counter
        return block

    def test_more_paths_than_the_tree_holds(self):
        pe_block = np.random.default_rng(11).uniform(0.01, 0.5, size=(4, 3))
        block = self.assert_all_agree(pe_block, 4**3 + 40, 4, None, 1)
        assert all(result.expanded_nodes == 4**3 for result in block)
        assert all(result.candidate_peak <= 4**3 for result in block)

    @pytest.mark.parametrize("batch_size", [1, 3, 4])
    def test_one_channel(self, batch_size):
        pe_block = np.random.default_rng(12).uniform(0.01, 0.5, size=(1, 6))
        self.assert_all_agree(pe_block, 50, 16, 0.9, batch_size)

    def test_per_channel_nan_thresholds_in_rounds_of_three(self):
        rng = np.random.default_rng(13)
        pe_block = rng.uniform(0.001, 0.4, size=(9, 5))
        thresholds = rng.uniform(0.3, 1.0, size=9)
        thresholds[::3] = np.nan
        block = self.assert_all_agree(pe_block, 40, 8, thresholds, 3)
        assert not any(block[c].stopped_early for c in range(0, 9, 3))

    def test_products_across_the_subnormal_range(self):
        """Keys a floor-sized ``Pe`` takes below 2^-1022, and to ``-0.0``:
        the heap's integer-rounded products equal the per-channel heap's
        hardware ones bit for bit, and its ties among ``-0.0`` keys pop in
        the same order."""
        pe_block = draw_pe_block("near_floor", np.random.default_rng(21), 64, 8)
        block = self.assert_all_agree(pe_block, 128, 16, None, 1)
        probabilities = np.concatenate([result.probabilities for result in block])
        assert np.mean(probabilities == 0.0) > 0.01
        subnormal = (probabilities > 0.0) & (probabilities < np.finfo(float).tiny)
        assert len(np.unique(np.floor(np.log2(probabilities[subnormal])))) > 20

    @pytest.mark.parametrize("snr_db", [5.0, 20.0, 35.0])
    def test_the_production_shape(self, snr_db):
        """64 channels of 12x12 64-QAM, 128 paths: at high SNR most levels
        clip to ``_PE_MIN``, whose products underflow and tie."""
        system = QamConstellation(64)
        channels = rayleigh_channels(64, 12, 12, np.random.default_rng(int(snr_db)))
        qrs = stacked_sorted_qr(channels)
        models = LevelErrorModel.from_channels(
            np.stack([np.diagonal(qr.r) for qr in qrs]), 10 ** (-snr_db / 10), system
        )
        pe_block = np.stack([model.pe for model in models])
        if snr_db == 35.0:
            assert np.mean(pe_block == _PE_MIN) > 0.5
        self.assert_all_agree(pe_block, 128, system.order, None, 1)
