"""Tests for a-FlexCore adaptive PE activation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.fading import rayleigh_channel
from repro.errors import ConfigurationError
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.preprocessing import (
    covering_prefix,
    leading_path_probabilities,
)
from repro.flexcore.probability import LevelErrorModel
from repro.mimo.model import noise_variance_for_snr_db
from repro.mimo.qr import sorted_qr
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from tests.conftest import random_link
from tests.reference.path_search import find_promising_paths


class TestActivation:
    def test_high_snr_collapses_to_one_path(self, small_system, rng):
        """In easy channels a-FlexCore approaches linear complexity."""
        channel, _, _, _ = random_link(small_system, 40.0, 1, rng)
        detector = AdaptiveFlexCoreDetector(small_system, num_paths=64)
        context = detector.prepare(channel, 1e-4)
        assert context.active_paths <= 2

    def test_low_snr_uses_many_paths(self, small_system, rng):
        channel, _, _, _ = random_link(small_system, 0.0, 1, rng)
        detector = AdaptiveFlexCoreDetector(small_system, num_paths=64)
        context = detector.prepare(channel, 1.0)
        assert context.active_paths > 8

    def test_active_count_bounded(self, small_system, rng):
        for snr_db, noise_var in ((5.0, 0.3), (15.0, 0.03), (30.0, 0.001)):
            channel, _, _, _ = random_link(small_system, snr_db, 1, rng)
            detector = AdaptiveFlexCoreDetector(small_system, num_paths=32)
            context = detector.prepare(channel, noise_var)
            assert 1 <= context.active_paths <= 32

    def test_monotone_in_snr(self, small_system):
        rng = np.random.default_rng(4)
        channel, _, _, _ = random_link(small_system, 10.0, 1, rng)
        detector = AdaptiveFlexCoreDetector(small_system, num_paths=64)
        active = [
            detector.prepare(channel, noise_var).active_paths
            for noise_var in (0.5, 0.05, 0.005)
        ]
        assert active[0] >= active[1] >= active[2]


class TestDetection:
    def test_detection_uses_only_active_paths(self, small_system, rng):
        channel, _, received, noise_var = random_link(
            small_system, 30.0, 10, rng
        )
        detector = AdaptiveFlexCoreDetector(small_system, num_paths=64)
        result = detector.detect(channel, received, noise_var)
        assert result.metadata["active_paths"] == result.metadata["paths"]
        assert result.metadata["active_paths"] < 64

    def test_matches_flexcore_when_target_is_one(self, small_system, rng):
        """probability_target=1.0 keeps every path: plain FlexCore."""
        channel, _, received, noise_var = random_link(
            small_system, 12.0, 20, rng
        )
        adaptive = AdaptiveFlexCoreDetector(
            small_system, num_paths=16, probability_target=1.0
        )
        plain = FlexCoreDetector(small_system, num_paths=16)
        assert np.array_equal(
            adaptive.detect(channel, received, noise_var).indices,
            plain.detect(channel, received, noise_var).indices,
        )

    def test_near_ml_quality_retained(self, small_system):
        """a-FlexCore trades complexity, not (much) accuracy."""
        plain_errors = adaptive_errors = 0
        for seed in range(15):
            rng = np.random.default_rng(seed)
            channel, indices, received, noise_var = random_link(
                small_system, 14.0, 30, rng
            )
            plain = FlexCoreDetector(small_system, num_paths=64)
            adaptive = AdaptiveFlexCoreDetector(small_system, num_paths=64)
            plain_errors += np.count_nonzero(
                (plain.detect(channel, received, noise_var).indices != indices)
                .any(axis=1)
            )
            adaptive_errors += np.count_nonzero(
                (
                    adaptive.detect(channel, received, noise_var).indices
                    != indices
                ).any(axis=1)
            )
        assert adaptive_errors <= plain_errors + 10


class TestValidation:
    def test_bad_target(self, small_system):
        with pytest.raises(ConfigurationError):
            AdaptiveFlexCoreDetector(
                small_system, num_paths=8, probability_target=0.0
            )


class TestCoveringPrefix:
    """a-FlexCore's rule on a prepared block's row is the count at which
    the reference heap, run on its own sorted QR with ``stop_threshold =
    1 - target``, stops: the SNR policy's budget before it read rows."""

    @settings(max_examples=80, deadline=None)
    @given(
        num_streams=st.integers(min_value=2, max_value=12),
        qam_order=st.sampled_from([4, 16, 64]),
        target=st.floats(min_value=1e-4, max_value=0.5),
        paths_max=st.integers(min_value=1, max_value=128),
        snr_db=st.floats(min_value=0.0, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_prefix_is_the_heaps_stopping_count(
        self, num_streams, qam_order, target, paths_max, snr_db, seed
    ):
        constellation = QamConstellation(qam_order)
        system = MimoSystem(num_streams, num_streams, constellation)
        channel = rayleigh_channel(num_streams, num_streams, rng=seed)
        noise_var = noise_variance_for_snr_db(snr_db)
        detector = FlexCoreDetector(system, num_paths=paths_max)
        row = leading_path_probabilities(
            detector.prepare_many(channel[None], noise_var)
        )
        model = LevelErrorModel.from_channel(
            sorted_qr(channel).r, noise_var, constellation
        )
        heap = find_promising_paths(
            model, paths_max, qam_order, stop_threshold=1.0 - target
        )
        assert covering_prefix(row, len(row), 1.0 - target) == (
            heap.expanded_nodes
        )

    def test_rows_valid_up_to_their_counts(self):
        """Entries past a row's count never count, whatever they hold."""
        rows = np.array([[0.5, 0.25, 0.125, 9.0], [0.5, 0.25, 9.0, 9.0]])
        counts = np.array([3, 2])
        assert covering_prefix(rows, counts, 0.875).tolist() == [3, 2]
        assert covering_prefix(rows, counts, 0.75).tolist() == [2, 2]
