"""Tests for the FlexCore path-probability model (Eqs. 2-4, 11)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionError
from repro.flexcore.probability import (
    LevelErrorModel,
    pe_corrected,
    pe_paper_literal,
    rank_probability,
)


class TestPeFormulas:
    def test_corrected_in_unit_interval(self, constellation):
        diag = np.linspace(0.05, 3.0, 20)
        pe = pe_corrected(diag, 0.1, constellation)
        assert (pe > 0).all()
        assert (pe < 1).all()

    def test_corrected_decreases_with_gain(self, qam16):
        pe = pe_corrected(np.array([0.5, 1.0, 2.0]), 0.1, qam16)
        assert pe[0] > pe[1] > pe[2]

    def test_corrected_decreases_with_snr(self, qam16):
        low = pe_corrected(np.array([1.0]), 1.0, qam16)
        high = pe_corrected(np.array([1.0]), 0.01, qam16)
        assert high < low

    def test_paper_literal_clipped(self, qam16):
        pe = pe_paper_literal(np.array([0.0]), 1.0, qam16)
        assert 0 < pe[0] < 1  # (2 + 2/4) erfc(0) = 2.5 would exceed 1

    def test_matches_qam_ser_magnitude(self, qam16):
        """At 15 dB the nearest-symbol error of 16-QAM is ~2%."""
        pe = pe_corrected(np.array([1.0]), 10 ** (-1.5), qam16)
        assert 0.005 < pe[0] < 0.06

    def test_invalid_noise_raises(self, qam16):
        with pytest.raises(ConfigurationError):
            pe_corrected(np.array([1.0]), 0.0, qam16)


class TestRankProbability:
    def test_geometric_form(self):
        pe = np.array(0.25)
        assert rank_probability(pe, 1) == pytest.approx(0.75)
        assert rank_probability(pe, 2) == pytest.approx(0.75 * 0.25)
        assert rank_probability(pe, 3) == pytest.approx(0.75 * 0.25**2)

    def test_sums_to_one_over_all_ranks(self):
        pe = np.array(0.4)
        ranks = np.arange(1, 500)
        assert rank_probability(pe, ranks).sum() == pytest.approx(1.0)

    def test_monotone_decreasing_in_rank(self):
        probs = rank_probability(np.array(0.3), np.arange(1, 20))
        assert (np.diff(probs) < 0).all()

    def test_zero_rank_rejected(self):
        with pytest.raises(DimensionError):
            rank_probability(np.array(0.3), 0)


class TestLevelErrorModel:
    def test_from_channel_uses_diagonal(self, qam16):
        r = np.triu(np.full((3, 3), 0.5 + 0.5j))
        np.fill_diagonal(r, [2.0, 1.0, 0.5])
        model = LevelErrorModel.from_channel(r, 0.05, qam16)
        assert model.num_levels == 3
        # Larger |R(l,l)| means a more reliable level: pe[0] < pe[1] < pe[2].
        assert model.pe[0] < model.pe[1] < model.pe[2]

    def test_path_probability_factorises(self, qam16):
        model = LevelErrorModel.from_channel(
            np.array([1.0, 0.8, 1.2]), 0.1, qam16
        )
        p = np.array([2, 1, 3])
        expected = np.prod(
            [rank_probability(model.pe[i], p[i]) for i in range(3)]
        )
        assert model.path_probability(p) == pytest.approx(expected)

    def test_vectorised_matches_scalar(self, qam16, rng):
        model = LevelErrorModel.from_channel(
            np.array([1.0, 0.8, 1.2, 0.9]), 0.2, qam16
        )
        paths = rng.integers(1, 6, size=(20, 4))
        batch = model.path_probabilities(paths)
        for row in range(20):
            assert batch[row] == pytest.approx(
                model.path_probability(paths[row])
            )

    def test_all_ones_is_most_likely(self, qam16, rng):
        model = LevelErrorModel.from_channel(
            rng.uniform(0.3, 2.0, 5), 0.15, qam16
        )
        best = model.path_probability(np.ones(5, dtype=int))
        for _ in range(50):
            other = rng.integers(1, 5, size=5)
            assert model.path_probability(other) <= best + 1e-15

    def test_unknown_formula_rejected(self, qam16):
        with pytest.raises(ConfigurationError):
            LevelErrorModel.from_channel(
                np.array([1.0]), 0.1, qam16, formula="guess"
            )


class TestModelAgainstMonteCarlo:
    @pytest.mark.parametrize("snr_db", [5.0, 12.0])
    def test_rank_distribution_matches_simulation(self, snr_db, qam16):
        """Eq. 11 vs AWGN Monte-Carlo — the Fig. 14 claim, in miniature."""
        noise_var = 10 ** (-snr_db / 10)
        model = LevelErrorModel.from_channel(
            np.array([1.0]), noise_var, qam16
        )
        predicted = model.rank_distribution(0, 4)
        rng = np.random.default_rng(99)
        trials = 30000
        sent = rng.integers(0, 16, trials)
        noise = np.sqrt(noise_var / 2) * (
            rng.standard_normal(trials) + 1j * rng.standard_normal(trials)
        )
        received = qam16.points[sent] + noise
        distances = np.abs(received[:, None] - qam16.points[None, :])
        order = np.argsort(distances, axis=1)
        position = np.argmax(order == sent[:, None], axis=1)
        for k in range(2):
            simulated = np.mean(position == k)
            assert predicted[k] == pytest.approx(simulated, abs=0.04)


class TestFromChannels:
    """The stacked error model of the batched cold path."""

    def test_bit_identical_to_per_channel(self, constellation, rng):
        r_stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        for formula in ("corrected", "paper"):
            stacked = LevelErrorModel.from_channels(
                r_stack, 0.05, constellation, formula=formula
            )
            assert len(stacked) == 6
            for c, model in enumerate(stacked):
                single = LevelErrorModel.from_channel(
                    r_stack[c], 0.05, constellation, formula=formula
                )
                assert np.array_equal(model.pe, single.pe)
                assert model.pe.dtype == single.pe.dtype

    def test_accepts_diagonal_stack(self, qam16, rng):
        r_stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        diags = np.diagonal(r_stack, axis1=1, axis2=2)
        from_matrices = LevelErrorModel.from_channels(r_stack, 0.1, qam16)
        from_diags = LevelErrorModel.from_channels(diags, 0.1, qam16)
        for a, b in zip(from_matrices, from_diags):
            assert np.array_equal(a.pe, b.pe)

    def test_bad_shapes_raise(self, qam16):
        with pytest.raises(DimensionError):
            LevelErrorModel.from_channels(np.zeros(4), 0.1, qam16)
        with pytest.raises(ConfigurationError):
            LevelErrorModel.from_channels(
                np.ones((2, 3)), 0.1, qam16, formula="bogus"
            )
