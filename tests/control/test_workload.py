"""Tests for the seeded traffic scenario generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channels
from repro.control.workload import (
    SCENARIOS,
    ScenarioOutcome,
    WorkloadScenario,
    slot_arrivals,
)
from repro.errors import ConfigurationError
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.ofdm.lte import SYMBOLS_PER_SLOT

CELLS = ("cell0", "cell1", "cell2")


def scenario(kind, **kwargs):
    defaults = dict(
        scenario=kind, cells=CELLS, slots=40, subcarriers=8, seed=7
    )
    defaults.update(kwargs)
    return WorkloadScenario(**defaults)


class TestDemandTable:
    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_counts_within_capacity(self, kind):
        for row in scenario(kind).demand():
            assert set(row) == set(CELLS)
            for count in row.values():
                assert 0 <= count <= 8

    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_seeded_determinism(self, kind):
        assert scenario(kind).demand() == scenario(kind).demand()

    def test_seeds_differ(self):
        assert (
            scenario("poisson", seed=1).demand()
            != scenario("poisson", seed=2).demand()
        )

    def test_steady_is_constant(self):
        rows = scenario("steady", utilization=0.75).demand()
        counts = {count for row in rows for count in row.values()}
        assert counts == {6}

    def test_bursty_visits_both_states(self):
        rows = scenario("bursty").demand()
        counts = [count for row in rows for count in row.values()]
        assert 8 in counts  # on: full blast
        assert min(counts) < 8  # off: trickle

    def test_diurnal_peaks_mid_run(self):
        rows = scenario("diurnal", cells=("c",), slots=30).demand()
        counts = [row["c"] for row in rows]
        mid = np.mean(counts[12:18])
        edges = np.mean(counts[:3] + counts[-3:])
        assert mid > edges

    def test_flash_crowd_spikes_in_window(self):
        run = scenario("flash-crowd", cells=("c",), slots=20)
        counts = [row["c"] for row in run.demand()]
        assert max(counts[8:13]) == 8  # the spike window
        assert counts[0] < 8 and counts[-1] < 8  # calm edges

    def test_offered_frames_matches_demand(self):
        run = scenario("steady", utilization=1.0)
        total = sum(
            count for row in run.demand() for count in row.values()
        )
        assert run.offered_frames() == total * SYMBOLS_PER_SLOT

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            scenario("tsunami")
        with pytest.raises(ConfigurationError):
            scenario("steady", slots=0)
        with pytest.raises(ConfigurationError):
            scenario("steady", utilization=0.0)
        with pytest.raises(ConfigurationError):
            scenario("steady", cells=())


class TestSlotArrivals:
    def test_materialises_demand_row(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        rng = np.random.default_rng(5)
        channels = {
            "cell0": rayleigh_channels(8, 4, 4, rng),
            "cell1": rayleigh_channels(8, 4, 4, rng),
        }
        arrivals = slot_arrivals(
            {"cell0": 3, "cell1": 0}, channels, system, 0.05, rng
        )
        assert len(arrivals) == 3
        assert all(a.cell == "cell0" for a in arrivals)
        assert all(a.num_frames == SYMBOLS_PER_SLOT for a in arrivals)
        # The first `count` subcarrier channels, in order: coherent reuse.
        assert np.array_equal(arrivals[1].channel, channels["cell0"][1])

    def test_demand_beyond_capacity_rejected(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        rng = np.random.default_rng(5)
        channels = {"cell0": rayleigh_channels(2, 4, 4, rng)}
        with pytest.raises(ConfigurationError):
            slot_arrivals({"cell0": 3}, channels, system, 0.05, rng)


def test_outcome_repr_leaves_detections_out():
    """``asyncio.run`` formats its task's result on the way out; an
    outcome that printed its detections' arrays there doubled the cost
    of a streamed batch."""
    outcome = ScenarioOutcome(
        frames_detected=7, detections=[np.zeros((64, 16))]
    )
    assert "detections" not in repr(outcome)
    assert "frames_detected=7" in repr(outcome)
