"""Tests for soft-output FlexCore.

The sorted candidate list is pinned to ``tests/reference/flexcore_llr.py``
— the frozen dense ``where``/``min`` reduction — with ``np.array_equal``:
both pick one of the same PEDs per hypothesis, so nothing may differ.
A block's PEDs are bit-identical to the oracle's only on the portable
level loop, so whole-block LLRs are compared to rounding on the native
lane, whose fused call ``test_native_detect.py`` pins to this lane.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.flexcore.detector as detector_module
from repro import native
from repro.errors import ConfigurationError, LinkSimulationError
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.link.channels import rayleigh_sampler
from repro.link.config import LinkConfig
from repro.link.simulation import simulate_link
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.utils.bits import ints_to_bits
from tests.conftest import make_block, random_link
from tests.reference import flexcore_llr as reference


@pytest.fixture(scope="module")
def soft_system():
    return MimoSystem(4, 4, QamConstellation(16))


class TestLlrs:
    def test_llr_shape(self, soft_system, rng):
        channel, _, received, noise_var = random_link(
            soft_system, 15.0, 10, rng
        )
        detector = SoftFlexCoreDetector(soft_system, num_paths=16)
        result = detector.detect_soft(channel, received, noise_var)
        assert result.llrs.shape == (10, 16)
        assert result.indices.shape == (10, 4)

    def test_llr_signs_match_bits_at_high_snr(self, soft_system, rng):
        channel, indices, received, _ = random_link(
            soft_system, 60.0, 40, rng
        )
        detector = SoftFlexCoreDetector(soft_system, num_paths=32)
        result = detector.detect_soft(channel, received, 1e-6)
        tx_bits = np.stack(
            [ints_to_bits(indices[row], 4) for row in range(40)]
        )
        # LLR < 0 means "bit 1 more likely".
        agreement = np.mean((result.llrs < 0) == (tx_bits == 1))
        assert agreement > 0.999

    def test_llrs_clipped(self, soft_system, rng):
        channel, _, received, noise_var = random_link(
            soft_system, 25.0, 20, rng
        )
        detector = SoftFlexCoreDetector(
            soft_system, num_paths=8, llr_clip=12.0
        )
        result = detector.detect_soft(channel, received, noise_var)
        assert np.abs(result.llrs).max() <= 12.0 + 1e-12

    def test_hard_decisions_match_hard_detector(self, soft_system, rng):
        from repro.flexcore.detector import FlexCoreDetector

        channel, _, received, noise_var = random_link(
            soft_system, 12.0, 30, rng
        )
        soft = SoftFlexCoreDetector(soft_system, num_paths=24)
        hard = FlexCoreDetector(soft_system, num_paths=24)
        soft_result = soft.detect_soft(channel, received, noise_var)
        hard_result = hard.detect(channel, received, noise_var)
        assert np.array_equal(soft_result.indices, hard_result.indices)

    def test_magnitude_grows_with_snr(self, soft_system):
        rng = np.random.default_rng(3)
        channel, _, received_hi, nv_hi = random_link(
            soft_system, 24.0, 30, rng
        )
        detector = SoftFlexCoreDetector(soft_system, num_paths=32,
                                        llr_clip=1e9)
        hi = detector.detect_soft(channel, received_hi, nv_hi)
        lo = detector.detect_soft(channel, received_hi, nv_hi * 100)
        assert np.median(np.abs(hi.llrs)) > np.median(np.abs(lo.llrs))

    def test_invalid_clip(self, soft_system):
        with pytest.raises(ConfigurationError):
            SoftFlexCoreDetector(soft_system, num_paths=8, llr_clip=0.0)


class TestCodedLink:
    @pytest.fixture(scope="class")
    def link(self):
        system = MimoSystem(4, 4, QamConstellation(16))
        config = LinkConfig(
            system=system, ofdm_symbols_per_packet=2, num_subcarriers=12
        )
        return config

    def test_soft_at_least_as_good_as_hard(self, link):
        """Soft decoding buys coding gain — the point of §7's extension."""
        detector = SoftFlexCoreDetector(link.system, num_paths=32)
        hard_errors = soft_errors = 0
        for seed in (1, 2, 3):
            hard = simulate_link(
                link, detector, 10.0, 10, rayleigh_sampler(link), rng=seed
            )
            soft = simulate_link(
                link,
                detector,
                10.0,
                10,
                rayleigh_sampler(link),
                rng=seed,
                use_soft=True,
            )
            hard_errors += hard.bit_errors
            soft_errors += soft.bit_errors
        assert soft_errors <= hard_errors

    def test_hard_detector_rejected_for_soft_link(self, link):
        from repro.detectors.linear import MmseDetector

        with pytest.raises(LinkSimulationError):
            simulate_link(
                link,
                MmseDetector(link.system),
                10.0,
                1,
                rayleigh_sampler(link),
                rng=0,
                use_soft=True,
            )


def list_llrs(detector, indices, ped, noise_var=0.5):
    """``(head, llrs, missing)`` of one candidate list — ``indices``
    ``(Nt, P)``, ``ped`` ``(P,)`` — checked against the oracle's."""
    indices = np.asarray(indices, dtype=np.int64)[None, None]
    ped = np.asarray(ped, dtype=np.float64)[None, None]
    got = detector._list_llrs(indices, ped, noise_var)
    expected = reference.list_llrs(
        detector.system.constellation, indices, ped, noise_var, detector.llr_clip
    )
    for ours, theirs in zip(got, expected):
        assert np.array_equal(ours, theirs)
    return [out[0, 0] for out in got]


class TestSortedListAgainstTheDenseReduction:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        order=st.sampled_from([4, 16, 64, 256]),
        num_streams=st.integers(2, 12),
        num_paths=st.integers(1, 40),
        budget=st.one_of(st.none(), st.integers(1, 40)),
        limit=st.sampled_from([1, 600, 5000, 40000, 1 << 23]),
        snr_db=st.sampled_from([2.0, 8.0, 14.0]),
        seed=st.integers(0, 2**16),
    )
    def test_blocks_chunked_stacked_and_alone(
        self, order, num_streams, num_paths, budget, limit, snr_db, seed
    ):
        system = MimoSystem(num_streams, num_streams, QamConstellation(order))
        detector = SoftFlexCoreDetector(system, num_paths)
        channels, received, noise_var = make_block(system, 3, 4, snr_db, seed)
        contexts = detector.prepare_many(channels, noise_var)
        expected = reference.detect_soft_block(
            detector, contexts, received, noise_var, budget
        )
        exact = native.kernel() is None

        def check(rows):
            indices, llrs, metadata = detector.detect_soft_block_prepared(
                contexts[rows], received[rows], noise_var, max_paths=budget
            )
            assert np.array_equal(indices, expected[0][rows])
            if exact:
                assert np.array_equal(llrs, expected[1][rows])
            else:
                assert np.allclose(llrs, expected[1][rows], rtol=1e-9, atol=1e-9)
            assert [m["clamped_bits"] for m in metadata] == expected[2][rows]

        with mock.patch.object(detector_module, "MAX_CHUNK_ELEMENTS", limit):
            check(slice(None))
            for sc in range(len(contexts)):
                check(slice(sc, sc + 1))

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64, 256]),
        num_streams=st.integers(1, 3),
        paths=st.integers(1, 40),
        data=st.data(),
    )
    def test_any_list_with_ties_and_dead_paths(self, order, num_streams, paths, data):
        detector = SoftFlexCoreDetector(
            MimoSystem(num_streams, num_streams, QamConstellation(order)), paths
        )
        indices = data.draw(
            st.lists(
                st.lists(st.integers(0, order - 1), min_size=paths, max_size=paths),
                min_size=num_streams,
                max_size=num_streams,
            )
        )
        # Few distinct values, so ties and dead paths are the rule; the
        # walk's rank-1 path always survives, so one PED is finite.
        ped = data.draw(
            st.lists(
                st.sampled_from([0.25, 1.0, 1.0 + 2.0**-52, 3.5, np.inf]),
                min_size=paths,
                max_size=paths,
            ).filter(lambda values: min(values) < np.inf)
        )
        list_llrs(detector, indices, ped)

    @pytest.fixture
    def one_stream(self):
        # 16-QAM, one stream: a candidate is one 4-bit label.
        return SoftFlexCoreDetector(MimoSystem(1, 1, QamConstellation(16)), 4)

    def test_duplicate_peds_between_candidates_with_different_bits(self, one_stream):
        # 0b0101 and 0b1010 tie: the first one is the decision, and every
        # bit has both hypotheses at the same distance.
        head, llrs, missing = list_llrs(
            one_stream, [[0b0101, 0b1010, 0b0101]], [1.0, 1.0, 2.0]
        )
        assert head == [0b0101]
        assert np.array_equal(llrs, [0.0, 0.0, 0.0, 0.0])
        assert not missing.any()
        head, _, _ = list_llrs(one_stream, [[0b1010, 0b0101]], [1.0, 1.0])
        assert head == [0b1010]

    def test_hypothesis_absent_from_the_list(self, one_stream):
        # Every candidate has MSB 1 and LSB 0: those two bits clamp, to
        # the side the list agrees on.
        _, llrs, missing = list_llrs(
            one_stream, [[0b1010, 0b1100, 0b1000]], [0.5, 1.5, 1.0]
        )
        clip = one_stream.llr_clip
        assert np.array_equal(llrs, [-clip, 2.0, -1.0, clip])
        assert np.array_equal(missing, [True, False, False, True])

    def test_hypothesis_present_only_on_deactivated_paths(self, one_stream):
        # Only dead candidates carry MSB 0 or LSB 1: as good as absent.
        _, llrs, missing = list_llrs(
            one_stream, [[0b1110, 0b0110, 0b1010, 0b0011]], [1.0, np.inf, 2.0, np.inf]
        )
        clip = one_stream.llr_clip
        assert np.array_equal(llrs, [-clip, -2.0, -clip, clip])
        assert np.array_equal(missing, [True, False, True, True])

    def test_single_path_list(self, one_stream):
        head, llrs, missing = list_llrs(one_stream, [[0b0110]], [0.75])
        clip = one_stream.llr_clip
        assert head == [0b0110]
        assert np.array_equal(llrs, [clip, -clip, -clip, clip])
        assert missing.all()
