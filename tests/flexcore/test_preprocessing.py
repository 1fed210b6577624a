"""Tests for the pre-processing tree search (§3.1.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.flexcore.probability import LevelErrorModel
from repro.utils.flops import FlopCounter
from tests.reference.path_search import (
    brute_force_top_paths,
    find_promising_paths,
)


def _model(pe_values) -> LevelErrorModel:
    return LevelErrorModel(pe=np.asarray(pe_values, dtype=float))


class TestBasics:
    def test_root_is_all_ones(self):
        result = find_promising_paths(_model([0.2, 0.3, 0.1]), 5, 4)
        assert result.position_vectors[0].tolist() == [1, 1, 1]

    def test_requested_count_returned(self):
        result = find_promising_paths(_model([0.2, 0.3]), 10, 8)
        assert result.position_vectors.shape == (10, 2)

    def test_count_capped_by_tree_size(self):
        result = find_promising_paths(_model([0.2, 0.3]), 100, 3)
        assert result.position_vectors.shape[0] == 9

    def test_vectors_unique(self):
        result = find_promising_paths(_model([0.4, 0.35, 0.25, 0.3]), 64, 16)
        unique = np.unique(result.position_vectors, axis=0)
        assert unique.shape[0] == 64

    def test_probabilities_sorted_descending(self):
        result = find_promising_paths(_model([0.4, 0.3, 0.2]), 30, 8)
        assert (np.diff(result.probabilities) <= 1e-15).all()

    def test_ranks_within_bounds(self):
        result = find_promising_paths(_model([0.45, 0.45]), 16, 4)
        assert result.position_vectors.min() >= 1
        assert result.position_vectors.max() <= 4

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            find_promising_paths(_model([0.1]), 0, 4)
        with pytest.raises(ConfigurationError):
            find_promising_paths(_model([0.1]), 4, 0)
        with pytest.raises(ConfigurationError):
            find_promising_paths(_model([0.1]), 4, 4, batch_size=0)


class TestOptimality:
    @given(
        st.lists(st.floats(0.01, 0.6), min_size=2, max_size=4),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_top_n(self, pe_values, num_paths):
        """The tree search returns exactly the N most probable vectors."""
        model = _model(pe_values)
        max_rank = 4
        tree = find_promising_paths(model, num_paths, max_rank)
        brute = brute_force_top_paths(model, num_paths, max_rank)
        # Compare probability sequences (ties may reorder vectors).
        assert tree.probabilities == pytest.approx(
            brute.probabilities[: tree.probabilities.size], rel=1e-9
        )

    def test_exact_vectors_match_brute_force_without_ties(self):
        model = _model([0.37, 0.22, 0.11])
        tree = find_promising_paths(model, 25, 5)
        brute = brute_force_top_paths(model, 25, 5)
        assert np.array_equal(tree.position_vectors, brute.position_vectors)


class TestComplexityAccounting:
    def test_multiplication_count_scale(self):
        """Table 2 magnitude: tens-to-hundreds of mults, not thousands."""
        model = _model(np.full(8, 0.2))
        result = find_promising_paths(model, 32, 64)
        assert 30 <= result.real_multiplications <= 8 * 32 + 7

    def test_counter_charged(self):
        counter = FlopCounter()
        find_promising_paths(_model([0.3, 0.2]), 8, 8, counter=counter)
        assert counter.real_mults > 0


class TestStoppingCriterion:
    def test_stops_when_mass_reached(self):
        # Tiny Pe: the root alone carries almost all probability.
        model = _model([1e-6, 1e-6, 1e-6])
        result = find_promising_paths(
            model, 50, 8, stop_threshold=0.95
        )
        assert result.stopped_early
        assert result.expanded_nodes < 50

    def test_no_stop_without_threshold(self):
        model = _model([1e-6, 1e-6, 1e-6])
        result = find_promising_paths(model, 50, 8)
        assert not result.stopped_early
        assert result.expanded_nodes == 50

    def test_cumulative_probability_reported(self):
        model = _model([0.3, 0.2])
        result = find_promising_paths(model, 10, 8)
        assert result.cumulative_probability == pytest.approx(
            result.probabilities.sum()
        )


class TestParallelExpansion:
    @pytest.mark.parametrize("batch", [2, 6, 16])
    def test_batched_expansion_same_mass_scale(self, batch):
        """§3.1.1: parallel expansion loses little probability mass."""
        model = _model([0.35, 0.25, 0.15, 0.4])
        sequential = find_promising_paths(model, 60, 8, batch_size=1)
        batched = find_promising_paths(model, 60, 8, batch_size=batch)
        assert batched.position_vectors.shape == (60, 4)
        ratio = (
            batched.cumulative_probability
            / sequential.cumulative_probability
        )
        assert ratio > 0.95

    def test_batched_vectors_unique(self):
        model = _model([0.3, 0.3, 0.3])
        result = find_promising_paths(model, 27, 3, batch_size=4)
        assert np.unique(result.position_vectors, axis=0).shape[0] == 27


class TestBruteForceGuard:
    def test_brute_force_size_guard(self):
        with pytest.raises(ConfigurationError):
            brute_force_top_paths(_model(np.full(12, 0.2)), 10, 64)


class TestTieBreakOrdering:
    """Pin how exact ``Pc`` ties are ordered.

    ``brute_force_top_paths`` breaks ties by enumeration order (stable
    argsort over the ``max_rank**Nt`` grid); ``find_promising_paths``
    breaks them by generation serial (heap push order).  Those differ —
    the one place the two may legitimately disagree is the *ordering of
    vectors inside one tie group*, and therefore the membership of a
    prefix that cuts mid-group.  At every prefix ending on a tie-group
    boundary the selected path *sets* must agree exactly.
    """

    @pytest.mark.parametrize(
        "pe_values, num_paths, max_rank",
        [
            ([0.3, 0.3, 0.3], 27, 3),  # all levels tie: maximal ties
            ([0.25, 0.25], 16, 4),
            ([0.4, 0.4, 0.1, 0.1], 40, 4),  # two tie families
        ],
    )
    def test_path_sets_agree_at_tie_group_boundaries(
        self, pe_values, num_paths, max_rank
    ):
        model = _model(pe_values)
        tree = find_promising_paths(model, num_paths, max_rank)
        # Over-fetch the reference so the boundary test can see whether
        # the truncation at ``num_paths`` itself lands inside a tie
        # group (in which case even the full prefix may legitimately
        # differ — it is a mid-group cut).
        brute = brute_force_top_paths(
            model, min(2 * num_paths, max_rank ** model.num_levels), max_rank
        )
        n = tree.position_vectors.shape[0]
        assert tree.probabilities == pytest.approx(
            brute.probabilities[:n], rel=1e-9
        )
        # Prefix boundaries = indices where the probability strictly
        # drops.  Ties are grouped with a relative tolerance: the tree
        # search multiplies Pc factors in generation order while brute
        # force multiplies in level order, so "equal" products differ by
        # ULPs across the two implementations.
        def drops(previous: float, following: float) -> bool:
            return following < previous * (1.0 - 1e-9)

        boundaries = [
            k
            for k in range(1, n + 1)
            if (
                drops(tree.probabilities[k - 1], tree.probabilities[k])
                if k < n
                else (
                    brute.probabilities.size == n
                    or drops(tree.probabilities[n - 1], brute.probabilities[n])
                )
            )
        ]
        assert boundaries, "expected at least the full-prefix boundary"
        for k in boundaries:
            tree_set = {tuple(v) for v in tree.position_vectors[:k]}
            brute_set = {tuple(v) for v in brute.position_vectors[:k]}
            assert tree_set == brute_set, f"prefix {k} diverged"

    def test_mid_group_prefixes_may_reorder_but_stay_within_the_tie(self):
        """Document the legitimate divergence: a prefix cutting inside a
        tie group may pick different members, but any symmetric
        difference carries exactly the tied probability."""
        model = _model([0.3, 0.3, 0.3])
        num_paths, max_rank = 27, 3
        tree = find_promising_paths(model, num_paths, max_rank)
        brute = brute_force_top_paths(model, num_paths, max_rank)
        for k in range(1, num_paths + 1):
            tree_set = {tuple(v) for v in tree.position_vectors[:k]}
            brute_set = {tuple(v) for v in brute.position_vectors[:k]}
            for vector in tree_set ^ brute_set:
                assert model.path_probability(
                    np.asarray(vector)
                ) == pytest.approx(float(tree.probabilities[k - 1]))
