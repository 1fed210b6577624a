"""Clock-free tests for the compute governor's control law."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.control import (
    AimdPolicy,
    ComputeGovernor,
    StaticPolicy,
)
from repro.control.governor import PROBE_EVERY
from repro.errors import ConfigurationError
from repro.runtime.scheduler import FlushRecord


def flush_record(
    cell="cell0",
    frames=56,
    first_arrival_s=0.0,
    flushed_s=0.001,
    completed_s=0.002,
    deadline_s=0.01,
):
    """A synthetic FlushRecord; defaults are comfortably on time."""
    return FlushRecord(
        cell=cell,
        reason="target",
        subcarriers=8,
        frames=frames,
        first_arrival_s=first_arrival_s,
        flushed_s=flushed_s,
        completed_s=completed_s,
        deadline_s=deadline_s,
    )


def late_record(cell="cell0", frames=56):
    return flush_record(
        cell=cell, frames=frames, completed_s=0.05, deadline_s=0.01
    )


class TestGovernorBasics:
    def test_needs_a_policy(self):
        with pytest.raises(ConfigurationError):
            ComputeGovernor(policy="aimd")

    def test_initial_budget_comes_from_policy(self):
        governor = ComputeGovernor(AimdPolicy(2, 64, start=16))
        assert governor.path_budget("cell0") == 16
        assert governor.path_budget("cell1") == 16

    def test_lanes_do_not_share_policy_state(self):
        governor = ComputeGovernor(AimdPolicy(1, 64, start=32))
        governor.maybe_tick(0.0)  # arm
        governor.observe_flush("cell0", late_record("cell0"))
        governor.observe_flush(
            "cell1", flush_record("cell1"), frames_on_time=56
        )
        governor.tick(1.0)
        assert governor.path_budget("cell0") == 16  # backed off
        assert governor.path_budget("cell1") >= 32  # untouched or grown

    def test_slot_budget_binding_default_interval(self):
        """Ticks are one bound slot budget apart; every opportunity is
        a tick while no budget is bound."""
        governor = ComputeGovernor(StaticPolicy(8))
        assert governor.slot_budget_s is None
        assert not governor.maybe_tick(0.0)  # arms the clock
        assert governor.maybe_tick(0.0)
        governor.bind_slot_budget(0.25)  # what the scheduler does
        assert not governor.maybe_tick(0.1)
        assert governor.maybe_tick(0.3)
        assert governor.telemetry.ticks == 2

    def test_scheduler_bound_budget_rebinds_on_reattach(self):
        governor = ComputeGovernor(StaticPolicy(8))
        governor.bind_slot_budget(math.inf)  # drain-driven engine first
        governor.bind_slot_budget(0.01)  # then a real-time farm
        assert governor.slot_budget_s == 0.01


class TestControlLaw:
    def test_misses_cut_the_budget_next_tick(self):
        governor = ComputeGovernor(AimdPolicy(2, 64, start=64))
        governor.maybe_tick(0.0)
        for _ in range(3):
            governor.observe_flush("cell0", late_record())
        governor.tick(1.0)
        assert governor.path_budget("cell0") == 32
        assert governor.telemetry.budget_decreases == 1

    def test_decisions_are_recorded(self):
        governor = ComputeGovernor(AimdPolicy(2, 64, start=64))
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        governor.tick(1.0)
        decisions = governor.telemetry.decisions
        assert [d.tick for d in decisions] == [1, 2]
        assert decisions[0].frames == 56
        assert decisions[0].frames_late == 56
        assert decisions[1].frames == 0  # window was reset
        assert governor.telemetry.budget_trajectory("cell0") == [32, 32]

    def test_global_path_budget_constrains_the_sum(self):
        governor = ComputeGovernor(
            AimdPolicy(1, 64, start=64), total_path_budget=40
        )
        governor.observe_flush("cell0", flush_record("cell0"))
        governor.observe_flush("cell1", flush_record("cell1"))
        governor.tick(0.0)
        budgets = governor.budgets()
        assert sum(budgets.values()) <= 40
        assert all(budget >= 1 for budget in budgets.values())

    def test_snr_path_probabilities_reach_the_policy(self):
        from repro.control import SnrAwarePolicy
        from repro.flexcore import FlexCoreDetector
        from repro.flexcore.preprocessing import leading_path_probabilities
        from repro.mimo.system import MimoSystem
        from repro.modulation.constellation import QamConstellation

        detector = FlexCoreDetector(
            MimoSystem(4, 4, QamConstellation(16)), num_paths=64
        )
        # A crisp, well-conditioned channel: the desired budget collapses.
        row = leading_path_probabilities(
            detector.prepare_many((np.eye(4) * 4.0)[None], 1e-4)
        )
        governor = ComputeGovernor(SnrAwarePolicy(1, 64))
        governor.observe_flush("cell0", flush_record(), path_probabilities=row)
        governor.tick(0.0)
        assert governor.path_budget("cell0") <= 4
        # A later flush without a row keeps the last row's budget.
        governor.observe_flush("cell0", flush_record(), 56, None)
        governor.tick(0.0)
        assert governor.path_budget("cell0") <= 4


class TestLoadShedding:
    def _governor(self):
        return ComputeGovernor(AimdPolicy(2, 4, start=2))

    def test_floor_plus_misses_starts_shedding(self):
        governor = self._governor()
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        assert governor.shedding()["cell0"]
        assert governor.telemetry.sheds_started == 1
        assert not governor.admit("cell0", 7)
        assert governor.telemetry.frames_shed == 7

    def test_above_floor_never_sheds(self):
        governor = ComputeGovernor(AimdPolicy(2, 64, start=64))
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        assert not governor.shedding()["cell0"]

    def test_policy_that_never_cuts_still_escalates(self):
        """A policy that ignores misses (static, SNR-aware) exhausts
        its dial immediately: badly-missing windows must shed even
        though the budget never reaches the floor."""
        governor = ComputeGovernor(StaticPolicy(32))
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        assert governor.shedding()["cell0"]

    def test_shedding_admits_every_probe_eth_arrival(self):
        governor = self._governor()
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        verdicts = [
            governor.admit("cell0", 7) for _ in range(2 * PROBE_EVERY)
        ]
        assert verdicts == ([False] * (PROBE_EVERY - 1) + [True]) * 2
        assert governor.telemetry.frames_shed == 2 * (PROBE_EVERY - 1) * 7

    def test_recovered_probes_resume_admission(self):
        governor = self._governor()
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        for _ in range(PROBE_EVERY - 1):
            assert not governor.admit("cell0", 7)
        assert governor.admit("cell0", 7)  # the probe
        # The probe made its deadline: evidence the floor now fits.
        governor.observe_flush(
            "cell0", flush_record(frames=7), frames_on_time=7
        )
        governor.tick(1.0)
        assert not governor.shedding()["cell0"]
        assert governor.telemetry.sheds_ended == 1
        assert governor.admit("cell0", 7)

    def test_fully_shed_window_stays_shut(self):
        """RESUME_ABOVE means something: no probe evidence, no resume."""
        governor = self._governor()
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        assert not governor.admit("cell0", 7)  # window has sheds
        governor.tick(1.0)
        assert governor.shedding()["cell0"]

    def test_idle_window_resumes(self):
        governor = self._governor()
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        # Nothing offered at all in the next window: nothing to shed.
        governor.tick(1.0)
        assert not governor.shedding()["cell0"]

    def test_partial_hit_rate_keeps_shedding(self):
        governor = self._governor()
        governor.observe_flush("cell0", late_record())
        governor.tick(0.0)
        # What trickled through still mostly missed: stay shut.
        governor.observe_flush(
            "cell0", late_record(frames=20), frames_on_time=4
        )
        governor.tick(1.0)
        assert governor.shedding()["cell0"]


class TestFleetCoordination:
    """The hooks a farm coordinator drives: collect every worker's
    desires and floors, fit them under the global budget, install the
    awards back."""

    def test_desires_and_floors_cover_cells_not_yet_flushed(self):
        governor = ComputeGovernor(AimdPolicy(4, 64, start=16))
        governor.path_budget("cell0")
        assert governor.desired_budgets() == {"cell0": 16}
        assert governor.desired_budgets(["cell1"]) == {"cell0": 16, "cell1": 16}
        assert governor.floor_budgets(["cell2"]) == {"cell0": 4, "cell1": 4, "cell2": 4}

    @pytest.mark.parametrize(
        "award, installed, moves",
        [(200, 64, (1, 0)), (1, 4, (0, 1)), (16, 16, (0, 0))],
        ids=["above-the-ceiling", "below-the-floor", "unchanged"],
    )
    def test_an_award_is_clamped_to_the_policy_and_counted(self, award, installed, moves):
        governor = ComputeGovernor(AimdPolicy(4, 64, start=16))
        governor.install_budgets({"cell0": award})
        assert governor.path_budget("cell0") == installed
        telemetry = governor.telemetry
        assert (telemetry.budget_increases, telemetry.budget_decreases) == moves


class TestReporting:
    def test_as_dict_round_trip(self):
        governor = ComputeGovernor(AimdPolicy(2, 64, start=8))
        governor.observe_flush("cell0", flush_record(), frames_on_time=56)
        governor.tick(0.0)
        payload = governor.as_dict()
        assert payload["policy"] == "aimd"
        assert payload["ticks"] == 1
        assert payload["budgets"]["cell0"] >= 8
        assert payload["shedding"] == {"cell0": False}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComputeGovernor(StaticPolicy(4), total_path_budget=0)

    def test_observation_window_latencies(self):
        governor = ComputeGovernor(StaticPolicy(8))
        governor.observe_flush("cell0", flush_record(), frames_on_time=56)
        lane = governor._lane("cell0")
        observation = lane.observation(math.inf)
        assert observation.max_latency_s == pytest.approx(0.002)
        assert observation.service_sum_s == pytest.approx(0.001)
        assert observation.peak_flush_frames == 56
