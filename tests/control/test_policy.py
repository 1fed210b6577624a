"""Tests for the path-budget policies and the global allocator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.policy import (
    AimdPolicy,
    CellObservation,
    SnrAwarePolicy,
    StaticPolicy,
    allocate_budget,
)
from repro.errors import ConfigurationError
from repro.flexcore import FlexCoreDetector
from repro.flexcore.preprocessing import leading_path_probabilities
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation


def path_probabilities(channel, noise_var, num_paths=64):
    """The pop-order ``Pc`` row a 16-QAM FlexCore cell flushes for
    ``channel``."""
    detector = FlexCoreDetector(
        MimoSystem(*np.shape(channel), QamConstellation(16)), num_paths
    )
    prepared = detector.prepare_many(np.asarray(channel)[None], noise_var)
    return leading_path_probabilities(prepared)

#: Synthetic control windows: busy/quiet, clean/missing, varied latency.
observations = st.builds(
    CellObservation,
    cell_id=st.just("cell0"),
    budget=st.integers(min_value=1, max_value=256),
    frames=st.integers(min_value=0, max_value=512),
    frames_on_time=st.integers(min_value=0, max_value=512),
    frames_late=st.integers(min_value=0, max_value=512),
    frames_shed=st.integers(min_value=0, max_value=512),
    max_latency_s=st.floats(min_value=0.0, max_value=1.0),
    service_sum_s=st.floats(min_value=0.0, max_value=1.0),
    peak_flush_frames=st.integers(min_value=0, max_value=512),
    slot_budget_s=st.one_of(
        st.just(math.inf), st.floats(min_value=1e-4, max_value=1.0)
    ),
)


class TestObservation:
    @pytest.mark.parametrize(
        "window, hit_rate, service_per_frame, busy",
        [
            (dict(), 1.0, 0.0, False),
            (dict(frames_shed=3), 1.0, 0.0, True),
            (dict(frames=8, frames_on_time=6, frames_late=2, service_sum_s=0.004), 0.75, 0.0005, True),
        ],
        ids=["idle", "all-shed", "busy"],
    )
    def test_derived_rates(self, window, hit_rate, service_per_frame, busy):
        observation = CellObservation(cell_id="cell0", budget=8, **window)
        assert observation.deadline_hit_rate == hit_rate
        assert observation.mean_service_per_frame_s == pytest.approx(service_per_frame)
        assert observation.busy is busy


class TestBudgetBounds:
    """Every policy's budget stays within [paths_min, paths_max]."""

    @settings(max_examples=60, deadline=None)
    @given(
        seq=st.lists(observations, min_size=1, max_size=30),
        paths_min=st.integers(min_value=1, max_value=8),
        span=st.integers(min_value=0, max_value=120),
        start=st.one_of(
            st.none(), st.integers(min_value=-10, max_value=200)
        ),
    )
    def test_aimd_within_bounds(self, seq, paths_min, span, start):
        policy = AimdPolicy(paths_min, paths_min + span, start=start)
        assert paths_min <= policy.initial_budget() <= paths_min + span
        for observation in seq:
            budget = policy.update(observation)
            assert paths_min <= budget <= paths_min + span

    @settings(max_examples=30, deadline=None)
    @given(
        seq=st.lists(observations, min_size=1, max_size=10),
        paths=st.integers(min_value=1, max_value=256),
    )
    def test_static_within_bounds(self, seq, paths):
        policy = StaticPolicy(paths)
        for observation in seq:
            assert policy.update(observation) == paths

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        paths_min=st.integers(min_value=1, max_value=4),
        span=st.integers(min_value=0, max_value=60),
        snr_db=st.floats(min_value=-5.0, max_value=40.0),
        num_paths=st.integers(min_value=1, max_value=128),
    )
    def test_snr_aware_within_bounds(
        self, seed, paths_min, span, snr_db, num_paths
    ):
        rng = np.random.default_rng(seed)
        channel = rng.standard_normal((4, 4)) + 1j * rng.standard_normal(
            (4, 4)
        )
        noise_var = 10 ** (-snr_db / 10)
        policy = SnrAwarePolicy(paths_min, paths_min + span)
        observation = CellObservation(
            cell_id="cell0",
            budget=policy.initial_budget(),
            frames=7,
            path_probabilities=path_probabilities(
                channel, noise_var, num_paths
            ),
        )
        budget = policy.update(observation)
        assert paths_min <= budget <= paths_min + span


class TestAimd:
    def _miss(self, budget, late=10):
        return CellObservation(
            cell_id="cell0",
            budget=budget,
            frames=late,
            frames_late=late,
            slot_budget_s=0.01,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        lates=st.lists(
            st.integers(min_value=1, max_value=100),
            min_size=2,
            max_size=20,
        ),
        start=st.integers(min_value=1, max_value=128),
    )
    def test_monotone_non_increasing_under_sustained_misses(
        self, lates, start
    ):
        policy = AimdPolicy(1, 128, start=start)
        previous = policy.initial_budget()
        for late in lates:
            budget = policy.update(self._miss(previous, late))
            assert budget <= previous
            previous = budget

    def test_sustained_misses_reach_the_floor(self):
        policy = AimdPolicy(2, 64, start=64)
        budget = 64
        for _ in range(12):
            budget = policy.update(self._miss(budget))
        assert budget == 2

    def test_clean_busy_window_increases(self):
        policy = AimdPolicy(1, 64, start=8)
        observation = CellObservation(
            cell_id="cell0",
            budget=8,
            frames=56,
            frames_on_time=56,
            max_latency_s=0.001,
            service_sum_s=0.001,
            peak_flush_frames=56,
            slot_budget_s=0.1,
        )
        assert policy.update(observation) == 9

    def test_idle_window_holds(self):
        policy = AimdPolicy(1, 64, start=8)
        assert (
            policy.update(
                CellObservation(cell_id="cell0", budget=8)
            )
            == 8
        )

    def test_headroom_gate_blocks_unsafe_increase(self):
        # Tiny quiet flushes, but the predicted peak slot at the raised
        # budget would blow the deadline: the budget must hold.
        policy = AimdPolicy(1, 64, start=8)
        observation = CellObservation(
            cell_id="cell0",
            budget=8,
            frames=7,
            frames_on_time=7,
            max_latency_s=0.001,
            service_sum_s=0.001,  # ~143 us/frame at budget 8
            peak_flush_frames=56,
            slot_budget_s=0.010,  # peak predicts ~9 ms > 5 ms allowance
        )
        assert policy.update(observation) == 8

    def test_headroom_gate_scales_from_window_budget(self):
        # A global path budget clamped the window to 8 paths while the
        # policy's internal desire sits at 32: the peak prediction must
        # scale from the budget the measurement was taken at (8), not
        # the desire — else it underestimates ~4x and over-approves.
        policy = AimdPolicy(1, 64, start=32)
        observation = CellObservation(
            cell_id="cell0",
            budget=8,
            frames=56,
            frames_on_time=56,
            max_latency_s=0.004,
            service_sum_s=0.004,  # ~71 us/frame at the clamped budget 8
            peak_flush_frames=56,
            slot_budget_s=0.010,  # predicted @33 from 8: ~16 ms > 5 ms
        )
        assert policy.update(observation) == 32

    def test_peak_frames_hint_is_respected(self):
        # Without a hint the tiny observed peak looks safe; the hint
        # says slots are really 56 frames -> unsafe, hold.
        base = dict(
            cell_id="cell0",
            budget=8,
            frames=7,
            frames_on_time=7,
            max_latency_s=0.001,
            service_sum_s=0.001,
            peak_flush_frames=7,
            slot_budget_s=0.010,
        )
        unhinted = AimdPolicy(1, 64, start=8)
        assert unhinted.update(CellObservation(**base)) == 9
        hinted = AimdPolicy(1, 64, start=8, peak_frames_hint=56)
        assert hinted.update(CellObservation(**base)) == 8

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            AimdPolicy(0, 4)
        with pytest.raises(ConfigurationError):
            AimdPolicy(8, 4)
        with pytest.raises(ConfigurationError):
            AimdPolicy(1, 4, peak_frames_hint=0)

    def test_clone_is_independent(self):
        prototype = AimdPolicy(1, 64, start=32)
        a, b = prototype.clone(), prototype.clone()
        a.update(self._miss(32))
        assert a.initial_budget() == 16
        assert b.initial_budget() == 32


class TestSnrAware:
    @staticmethod
    def _update(policy, row):
        return policy.update(
            CellObservation(
                cell_id="cell0", budget=64, path_probabilities=row
            )
        )

    def test_clean_channel_needs_few_paths(self):
        policy = SnrAwarePolicy(1, 64, target_error_rate=0.05)
        clean = path_probabilities(np.eye(4) * 4.0, 1e-4)
        assert self._update(policy, clean) <= 4

    def test_harsh_channel_saturates(self):
        policy = SnrAwarePolicy(1, 64, target_error_rate=0.01)
        harsh = path_probabilities(np.eye(4) * 0.05, 1.0)
        assert self._update(policy, harsh) == 64

    def test_budget_is_the_covering_prefix(self):
        """Exact binary fractions: the mass reaches 1 - 0.125 at the
        third path, so a budget of three, raised to the floor of four."""
        row = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
        assert self._update(SnrAwarePolicy(1, 64, 0.125), row) == 3
        assert self._update(SnrAwarePolicy(4, 64, 0.125), row) == 4

    def test_short_row_caps_the_budget(self):
        """A cell walking fewer paths than ``paths_max`` whose row never
        covers the target asks for every path it has."""
        row = np.array([0.5, 0.25, 0.125])
        assert self._update(SnrAwarePolicy(1, 64, 0.01), row) == 3

    def test_no_row_keeps_current_budget(self):
        policy = SnrAwarePolicy(2, 64)
        assert self._update(policy, np.array([0.99])) == 2
        assert self._update(policy, None) == 2
        assert self._update(SnrAwarePolicy(2, 64), None) == 64

    def test_target_validation(self):
        with pytest.raises(ConfigurationError):
            SnrAwarePolicy(1, 8, target_error_rate=0.0)


class TestAllocateBudget:
    def test_fitting_desires_pass_through(self):
        desired = {"a": 8, "b": 16}
        assert allocate_budget(desired, 32) == desired

    def test_overload_is_proportional_and_exact(self):
        awarded = allocate_budget({"a": 60, "b": 20, "c": 20}, 50, 2)
        assert sum(awarded.values()) == 50
        assert awarded["a"] > max(awarded["b"], awarded["c"])
        # Equal desires may differ by at most the largest-remainder unit.
        assert abs(awarded["b"] - awarded["c"]) <= 1
        assert min(awarded.values()) >= 2

    def test_floors_guaranteed_when_pool_tight(self):
        awarded = allocate_budget({"a": 100, "b": 100}, 7, {"a": 3, "b": 2})
        assert awarded["a"] >= 3 and awarded["b"] >= 2
        assert sum(awarded.values()) == 7

    def test_oversubscribed_floors_returned_as_is(self):
        awarded = allocate_budget({"a": 10, "b": 10}, 3, 2)
        assert awarded == {"a": 2, "b": 2}

    def test_deterministic_tie_break(self):
        first = allocate_budget({"a": 9, "b": 9, "c": 9}, 10, 1)
        second = allocate_budget({"c": 9, "b": 9, "a": 9}, 10, 1)
        assert first == second

    @settings(max_examples=60, deadline=None)
    @given(
        desires=st.dictionaries(
            st.sampled_from(list("abcdef")),
            st.integers(min_value=1, max_value=200),
            min_size=1,
            max_size=6,
        ),
        total=st.integers(min_value=1, max_value=300),
    )
    def test_never_exceeds_pool_unless_floors_force_it(
        self, desires, total
    ):
        awarded = allocate_budget(desires, total)
        floor_sum = len(desires)  # floor 1 per cell
        assert sum(awarded.values()) <= max(total, floor_sum)
        for cell, award in awarded.items():
            assert 1 <= award <= desires[cell]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            allocate_budget({"a": 4}, 0)
        with pytest.raises(ConfigurationError):
            allocate_budget({"a": 1}, 10, {"a": 2})
        assert allocate_budget({}, 10) == {}

    def test_floors_for_unknown_cells_rejected(self):
        # A floors dict naming cells outside `desired` used to be
        # silently ignored — a typo'd cell id would quietly lose its
        # guarantee.  It must be a configuration error.
        with pytest.raises(ConfigurationError, match="cellX"):
            allocate_budget(
                {"a": 8, "b": 8}, 10, floors={"a": 2, "cellX": 2}
            )
        # Matching keys (any subset of desired) stay valid.
        awarded = allocate_budget({"a": 8, "b": 8}, 10, floors={"a": 2})
        assert sum(awarded.values()) == 10
