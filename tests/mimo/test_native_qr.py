"""Wübben's sorted QR on each lane against the numpy recursion.

``stacked_sorted_qr`` takes ``qr.c``'s one call for the block on the
native lane and the per-level numpy recursion (``_sorted_recursion``) on
the portable one; ``sorted_qr`` is the one-channel block on either.  Run
under the ``lane`` fixture, every case compares what the lane returns
with the numpy recursion: bit for bit on the portable lane, and on the
native lane the same permutation with ``Q`` and ``R`` within 1e-12 —
the two differ in summation order only.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import native
from repro.mimo.qr import _sorted_recursion, sorted_qr, stacked_sorted_qr

# The lane is patched once for all of a test's examples, as meant.
LANE = [HealthCheck.function_scoped_fixture]


def gaussian(rng, shape, dtype=np.complex128):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def recursion(channels):
    """The numpy recursion on a complex128 copy: ``(q, r, permutation)``."""
    return _sorted_recursion(np.array(channels, dtype=np.complex128, order="C"))


def assert_a_sorted_qr(qr, channel):
    """``H P = Q R`` with orthonormal ``Q`` and a real non-negative diagonal."""
    scale = max(np.abs(channel).max(), 1.0)
    np.testing.assert_allclose(qr.q @ qr.r, channel[:, qr.permutation], atol=1e-9 * scale)
    np.testing.assert_allclose(qr.q.conj().T @ qr.q, np.eye(qr.r.shape[0]), atol=1e-9)
    diag = np.diagonal(qr.r)
    assert np.all(diag.imag == 0.0) and np.all(diag.real >= 0.0)
    assert np.array_equal(qr.r, np.triu(qr.r))


@pytest.mark.usefixtures("lane")
class TestAgainstTheRecursion:
    @given(
        seed=st.integers(0, 2**31),
        num_streams=st.integers(1, 12),
        extra_rx=st.integers(0, 11),
        num_channels=st.integers(1, 5),
        dtype=st.sampled_from([np.complex64, np.complex128]),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=LANE)
    def test_same_permutation_and_factors(
        self, lane, seed, num_streams, extra_rx, num_channels, dtype
    ):
        num_rx = min(num_streams + extra_rx, 12)
        channels = gaussian(np.random.default_rng(seed), (num_channels, num_rx, num_streams), dtype)
        q, r, permutation = recursion(channels)
        for b, qr in enumerate(stacked_sorted_qr(channels)):
            assert np.array_equal(qr.permutation, permutation[b])
            assert np.abs(qr.q - q[b]).max() <= 1e-12
            assert np.abs(qr.r - r[b]).max() <= 1e-12 * np.abs(r[b]).max()
            if lane == "portable":
                assert qr.q.tobytes() == q[b].tobytes() and qr.r.tobytes() == r[b].tobytes()
            assert_a_sorted_qr(qr, channels[b].astype(np.complex128))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_sorted_qr_is_the_one_channel_block_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        for shape in [(8, 8), (12, 5), (3, 1), (6, 4)]:
            channel = gaussian(rng, shape, dtype)
            serial, stacked = sorted_qr(channel), stacked_sorted_qr(channel[None])[0]
            for name in ("q", "r", "permutation"):
                assert getattr(serial, name).tobytes() == getattr(stacked, name).tobytes()


@pytest.mark.usefixtures("lane")
class TestDegenerateChannels:
    def test_a_zero_column_goes_first_with_a_zero_q_column(self):
        channel = gaussian(np.random.default_rng(1), (6, 4))
        channel[:, 2] = 0.0
        qr = sorted_qr(channel)
        q, _, permutation = recursion(channel[None])
        assert np.array_equal(qr.permutation, permutation[0]) and qr.permutation[0] == 2
        assert np.array_equal(qr.q[:, 0], q[0, :, 0]) and not qr.q[:, 0].any()
        assert qr.r[0, 0] == 0.0

    def test_two_identical_columns(self):
        """Whichever comes first leaves the other a residual at rounding
        level, picked next on either lane; a column whose projection is
        exact leaves a residual of zero and a zero ``q`` column."""
        channel = gaussian(np.random.default_rng(2), (6, 5))
        channel[:, 3] = channel[:, 1]
        qr = sorted_qr(channel)
        _, r, permutation = recursion(channel[None])
        assert np.array_equal(qr.permutation, permutation[0])
        first = np.flatnonzero(np.isin(qr.permutation, [1, 3]))[0]
        assert sorted(qr.permutation[first : first + 2]) == [1, 3]
        for factor in (qr.r, r[0]):
            assert abs(factor[first + 1, first + 1]) <= 1e-12 * abs(factor).max()
        exact = np.zeros((4, 3), dtype=complex)
        exact[0, 0] = exact[0, 2] = 2.0
        exact[1:, 1] = [1.0, 3.0, -2.0]
        qr = sorted_qr(exact)
        q, _, permutation = recursion(exact[None])
        assert np.array_equal(qr.permutation, permutation[0])
        assert np.array_equal(qr.q, q[0]) and not qr.q[:, 1].any()

    @pytest.mark.parametrize("where", [(0, 0), (3, 2), (5, 4)])
    def test_a_nan_entry_keeps_the_permutation_in_range(self, where):
        channels = gaussian(np.random.default_rng(3), (3, 6, 5))
        channels[1][where] = np.nan
        for b, qr in enumerate(stacked_sorted_qr(channels)):
            assert sorted(qr.permutation.tolist()) == list(range(5))
            if b != 1:
                assert_a_sorted_qr(qr, channels[b])


def test_the_native_call_writes_only_its_block():
    """The kernel's ``work`` cut from the middle of a guarded buffer: a
    NaN channel between clean ones writes nothing outside it."""
    if native.kernel() is None:
        pytest.skip(f"no native lane here: {native.status()['reason']}")
    shape, guard = (3, 6, 5), 16
    buffer = np.full(np.prod(shape) + 2 * guard, 7.0 + 7.0j)
    work = buffer[guard:-guard].reshape(shape)
    work[...] = gaussian(np.random.default_rng(4), shape)
    work[1, 2, 3] = np.nan
    q, r, permutation = native.kernel().sorted_qr(work)
    assert np.all(buffer[:guard] == 7.0 + 7.0j) and np.all(buffer[-guard:] == 7.0 + 7.0j)
    assert all(sorted(row) == list(range(5)) for row in permutation.tolist())
    assert q.shape == shape and r.shape == (3, 5, 5)


@pytest.mark.parametrize(
    "work",
    [np.zeros((2, 4, 3), np.complex64), np.zeros((2, 4, 6), complex), np.zeros((4, 3), complex),
     np.zeros((2, 3, 4), complex).transpose(0, 2, 1), np.zeros((2, 4, 3), complex).tolist()],
    ids=["complex64", "wide", "2-d", "strided", "a list"],
)  # fmt: skip
def test_the_native_call_refuses_what_is_not_its_layout(work):
    if native.kernel() is None:
        pytest.skip(f"no native lane here: {native.status()['reason']}")
    with pytest.raises(ValueError, match="not the QR's layout"):
        native.kernel().sorted_qr(work)
