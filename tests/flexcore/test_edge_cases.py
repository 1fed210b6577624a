"""Property-style edge-case tests for the FlexCore detector (§3.2).

Two paper invariants pinned here:

* the all-ones position vector (rank-1 at every level) never deactivates
  — rank-1 lookups clamp the detection square inside the constellation —
  so FlexCore always produces a decision, at any SNR, in any channel;
* a LUT lookup whose k-th candidate falls outside the constellation
  deactivates its processing element: the path's Euclidean distance
  becomes infinite and it can never win the final minimum.

Both are exercised across fully-loaded (Nr == Nt, the paper's hardest
large-MIMO operating point) and underloaded (Nr > Nt) antenna
configurations; truly overloaded systems (more users than AP antennas)
are rejected at construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.fading import rayleigh_channel
from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.utils.flops import NULL_COUNTER
from tests.conftest import make_block, make_stack

#: (num_streams, num_rx) — fully loaded and underloaded APs.
ANTENNA_CONFIGS = [(4, 4), (3, 6)]


def _workload(num_streams, num_rx, order, seed, snr_scale=1.0):
    rng = np.random.default_rng(seed)
    system = MimoSystem(num_streams, num_rx, QamConstellation(order))
    channel = rayleigh_channel(num_rx, num_streams, rng)
    received = (
        rng.standard_normal((5, num_rx)) + 1j * rng.standard_normal((5, num_rx))
    ) * snr_scale
    return system, channel, received


class TestAllOnesPathSurvives:
    """The root path is rank-1 everywhere: it can never be deactivated."""

    @pytest.mark.parametrize("num_streams,num_rx", ANTENNA_CONFIGS)
    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_single_path_never_deactivates(self, num_streams, num_rx, seed):
        # num_paths=1 keeps exactly the all-ones position vector; if it
        # could deactivate, some vector would produce no decision.
        system, channel, received = _workload(
            num_streams, num_rx, 16, seed, snr_scale=50.0
        )
        detector = FlexCoreDetector(system, num_paths=1)
        result = detector.detect(channel, received, noise_var=0.05)
        assert result.metadata["deactivated_path_evaluations"] == 0
        assert result.indices.shape == (5, num_streams)
        assert np.all(result.indices >= 0)
        assert np.all(result.indices < system.constellation.order)

    @pytest.mark.parametrize("num_streams,num_rx", ANTENNA_CONFIGS)
    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_decision_always_produced(self, num_streams, num_rx, seed):
        # Even when deep fades deactivate most paths, the surviving
        # all-ones path guarantees a finite-distance winner.
        system, channel, received = _workload(
            num_streams, num_rx, 16, seed, snr_scale=20.0
        )
        detector = SoftFlexCoreDetector(system, num_paths=32)
        context = detector.prepare(channel, noise_var=0.01)
        rotated = context.qr.rotate_received(received)
        _, ped = detector._candidate_list(context, rotated, NULL_COUNTER)
        # Path 0 is the all-ones position vector: always finite.
        assert np.all(np.isfinite(ped[:, 0]))
        assert np.all(np.isfinite(ped.min(axis=1)))


class TestDeactivationIsInfiniteDistance:
    @pytest.mark.parametrize("num_streams,num_rx", ANTENNA_CONFIGS)
    def test_out_of_constellation_lookup_gets_inf(self, num_streams, num_rx):
        # Received vectors pushed far outside the constellation force
        # rank>=2 lookups off the grid; those paths must carry infinite
        # distance, and only the (finite) surviving paths may win.
        system, channel, _ = _workload(num_streams, num_rx, 16, seed=0)
        rng = np.random.default_rng(1)
        received = 200.0 * (
            rng.standard_normal((6, num_rx))
            + 1j * rng.standard_normal((6, num_rx))
        )
        detector = SoftFlexCoreDetector(system, num_paths=64)
        context = detector.prepare(channel, noise_var=0.05)
        rotated = context.qr.rotate_received(received)
        _, ped = detector._candidate_list(context, rotated, NULL_COUNTER)
        assert np.isinf(ped).any(), "expected deactivated paths"
        assert np.all(np.isfinite(ped[:, 0]))
        # The hard detector agrees and reports the deactivations.
        result = detector.detect_prepared(context, received)
        assert result.metadata["deactivated_path_evaluations"] == int(
            np.count_nonzero(np.isinf(ped))
        )
        assert np.all(result.indices >= 0)

    def test_lut_lookup_off_grid_returns_sentinel(self):
        # Direct LUT check: far outside 16-QAM the detection square is
        # clamped to a corner, so ranks 1-4 are the corner's 2x2 symbols
        # and rank 5 is the first lookup to leave the grid.
        from repro.flexcore.ordering import TriangleOrdering

        ordering = TriangleOrdering(QamConstellation(16))
        far = np.array([100.0 + 100.0j])
        rank1 = ordering.kth_symbol_indices(far, np.array([1]))
        rank5 = ordering.kth_symbol_indices(far, np.array([5]))
        assert rank1[0] >= 0, "rank-1 lookups clamp inside the grid"
        assert rank5[0] == -1, "off-grid ranks must deactivate"


class TestAntennaConfigs:
    def test_overloaded_system_rejected(self):
        with pytest.raises(ConfigurationError):
            MimoSystem(6, 4, QamConstellation(16))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_underloaded_matches_square_tree_walk(self, order):
        # Underloaded channels (extra receive diversity) go through the
        # same tree walk; sanity-check clean detection at high SNR.
        rng = np.random.default_rng(42)
        system = MimoSystem(3, 8, QamConstellation(order))
        channel = rayleigh_channel(8, 3, rng)
        indices = rng.integers(0, order, size=(10, 3))
        symbols = system.constellation.points[indices]
        received = symbols @ channel.T  # noiseless
        detector = FlexCoreDetector(system, num_paths=16)
        result = detector.detect(channel, received, noise_var=1e-4)
        assert np.array_equal(result.indices, indices)


class TestBlockWithoutFrames:
    """``(S, 0, Nr)`` is an empty block, not an error: the walk runs zero
    tiles, as ``S == 0`` runs zero groups."""

    @pytest.mark.parametrize("backend", ["serial", "array"])
    @pytest.mark.parametrize("use_soft", [False, True])
    def test_empty_decisions_and_zero_counts(self, backend, use_soft):
        system = MimoSystem(4, 4, QamConstellation(16))
        detector = SoftFlexCoreDetector(system, 8)
        channels, received, noise_var = make_block(system, 3, 0, 10.0, 1)
        with make_stack(detector, backend) as stack:
            result = stack.detect_batch(
                channels, received, noise_var, use_soft=use_soft
            )
        assert result.indices.shape == (3, 0, 4)
        assert result.indices.dtype == np.int64
        count = "clamped_bits" if use_soft else "deactivated_path_evaluations"
        assert result.per_subcarrier_metadata == [{"paths": 8, count: 0}] * 3
        if use_soft:
            assert result.llrs.shape == (3, 0, 16)
            assert result.llrs.dtype == np.float64
        else:
            assert result.llrs is None
