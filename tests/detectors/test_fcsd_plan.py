"""FCSD and SIC as FlexCore walk plans, pinned to the per-channel walks
they replaced (``tests/reference/fcsd_walk.py``).

The plan walks in half-grid units, the frozen walk in complex
unit-energy units, so their distances differ by rounding: decisions are
equal wherever the frozen walk's best distance beats its runner-up by
more than ``tests/conftest.py::distance_bound``, on both lanes, and on
seeded random links everywhere.  FCSD's FLOP charges were already the
walk's, so the totals are equal.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detectors.fcsd import FcsdDetector
from repro.detectors.sic import SicDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.cache import ContextCache
from repro.runtime.residency import ResidentContextStore
from repro.utils.flops import FlopCounter
from repro.utils.xp import resolve_array_module
from tests.conftest import distance_bound, make_block, random_link
from tests.reference import fcsd_walk as frozen

LANE = [HealthCheck.function_scoped_fixture]


def clear_of_ties(detector, channel, received, noise_var) -> np.ndarray:
    """``(n,)``: where the frozen walk's best path beats its runner-up
    by more than the distance bound (everywhere, with one path)."""
    context = detector.prepare(channel, noise_var)
    rotated = context.qr.rotate_received(received)
    _, ped = detector.walk_chunk(context, rotated)
    if ped.shape[1] == 1:
        return np.ones(ped.shape[0], dtype=bool)
    ordered = np.sort(ped, axis=1)[None]
    bound = distance_bound(ordered[..., :1], context.weights[None])[0, :, 0]
    return ordered[0, :, 1] - ordered[0, :, 0] > bound


class TestAgainstTheFrozenWalks:
    @settings(max_examples=60, deadline=None, suppress_health_check=LANE)
    @given(
        num_streams=st.integers(2, 8),
        order=st.sampled_from([4, 16, 64]),
        num_expanded=st.integers(0, 2),  # |Q|**L <= 64**2 = 4096
        qr_method=st.sampled_from(["fcsd", "sorted"]),
        snr_db=st.floats(0.0, 30.0),
        seed=st.integers(0, 2**31),
    )
    def test_fcsd_decisions_and_flops(
        self, lane, num_streams, order, num_expanded, qr_method, snr_db, seed
    ):
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        ours = FcsdDetector(system, num_expanded, qr_method)
        theirs = frozen.FcsdDetector(system, num_expanded, qr_method)
        channel, _, received, noise_var = random_link(
            system, snr_db, 24, np.random.default_rng(seed)
        )
        counters = FlopCounter(), FlopCounter()
        got = ours.detect(channel, received, noise_var, counter=counters[0]).indices
        expected = theirs.detect(channel, received, noise_var, counter=counters[1]).indices
        clear = clear_of_ties(theirs, channel, received, noise_var)
        assert np.array_equal(got[clear], expected[clear])
        assert counters[0] == counters[1] and counters[0].total_flops > 0
        assert ours.num_paths == theirs.num_paths == order**num_expanded

    @settings(max_examples=40, deadline=None, suppress_health_check=LANE)
    @given(
        num_streams=st.integers(2, 8),
        order=st.sampled_from([4, 16, 64]),
        snr_db=st.floats(0.0, 30.0),
        seed=st.integers(0, 2**31),
    )
    def test_sic_decisions(self, lane, num_streams, order, snr_db, seed):
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        channel, _, received, noise_var = random_link(
            system, snr_db, 24, np.random.default_rng(seed)
        )
        got = SicDetector(system).detect(channel, received, noise_var).indices
        expected = frozen.SicDetector(system).detect(channel, received, noise_var).indices
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "num_streams, order, num_expanded, qr_method",
        [(4, 16, 0, "sorted"), (8, 16, 0, "sorted"), (4, 16, 1, "fcsd"), (8, 16, 1, "fcsd"),
         (8, 16, 2, "fcsd"), (8, 64, 1, "fcsd"), (12, 16, 1, "fcsd"), (8, 16, 1, "sorted")],
    )  # fmt: skip
    def test_seeded_links_flip_nothing(self, lane, num_streams, order, num_expanded, qr_method):
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        detectors = (
            FcsdDetector(system, num_expanded, qr_method),
            frozen.FcsdDetector(system, num_expanded, qr_method),
        )
        if num_expanded == 0:
            detectors += (SicDetector(system), frozen.SicDetector(system))
        for seed in range(6):
            channel, _, received, noise_var = random_link(
                system, 8.0 + num_streams, 32, np.random.default_rng(seed)
            )
            decided = [d.detect(channel, received, noise_var).indices for d in detectors]
            for got in decided[1:]:
                assert np.array_equal(decided[0], got)


class TestThePathSet:
    def test_held_once_per_detector(self):
        """Every plan reads the detector's one path set through a zero
        stride, and a prepared block holds no per-path array."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FcsdDetector(system, num_expanded=2)
        channels = np.stack(
            [random_link(system, 10.0, 1, np.random.default_rng(s))[0] for s in range(5)]
        )
        block = detector.prepare_many(channels, 0.1)
        assert block.search is None and block.active.tolist() == [256] * 5
        received = np.zeros((5, 2, 4), dtype=complex)
        detector.detect_block_prepared(block, received, store=ResidentContextStore())
        (plan,) = block.plans.values()
        assert plan.absolute == 2 and plan.offsets.shape == (4, 5, 1, 2, 256)
        for table in (plan.offsets, plan.swap_delta):
            assert table.strides[1] == 0
        assert np.shares_memory(plan.offsets, detector._offsets)

    def test_expanded_levels_hold_every_symbol_pair(self):
        """At the top two levels the 256 paths are the 256 symbol pairs
        in the frozen walk's order; below them every path is rank 1."""
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = FcsdDetector(system, num_expanded=2)
        u, v = detector._offsets[:, 0, 0, 0], detector._offsets[:, 0, 0, 1]
        symbols = system.constellation.grid_to_index(u[2:].astype(int), v[2:].astype(int))
        assert np.array_equal(symbols[::-1].T, np.indices((16, 16)).reshape(2, -1).T)
        ones = np.ones((2, 1, 1, 256), dtype=np.int64)
        rank_one, _ = detector.ordering.path_offsets(ones, resolve_array_module(None))
        assert np.array_equal(detector._offsets[:2], rank_one)

    def test_rows_of_several_blocks_gather(self):
        """A cache serving rows of two prepared blocks gathers them into
        one: an FCSD block has no search to gather, and each row walks
        as it does alone."""
        system = MimoSystem(3, 3, QamConstellation(16))
        detector = FcsdDetector(system, num_expanded=1)
        channels, received, noise_var = make_block(system, 4, 2, 10.0, 1)
        cache = ContextCache()
        cache.get_or_prepare_block(detector, channels[:2], noise_var)
        gathered = cache.get_or_prepare_block(detector, channels, noise_var)
        assert gathered.search is None and len(gathered) == 4
        indices, _ = detector.detect_block_prepared(gathered, received)
        for sc in range(4):
            alone = detector.detect(channels[sc], received[sc], noise_var)
            assert np.array_equal(indices[sc], alone.indices)
