"""Stacked QR prepare vs the per-channel decompositions.

The batched cache-miss path factorises a whole coherence block in one
call; each stacked decomposition must match its per-channel counterpart
to machine precision across dtypes.  They are in fact bit-identical,
which is what makes the stacked runtime path safe to substitute: the
plain and FCSD variants make the same LAPACK calls per matrix, and
``sorted_qr`` *is* the one-channel ``stacked_sorted_qr`` on either lane
(``qr.c`` on the native lane, the numpy recursion on the portable one;
``test_native_qr.py`` pins the two lanes to each other).
"""

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.mimo.qr import (
    fcsd_sorted_qr,
    plain_qr,
    sorted_qr,
    stacked_fcsd_sorted_qr,
    stacked_plain_qr,
    stacked_sorted_qr,
)
from repro.utils.flops import FlopCounter


def block(dtype, seed=0, num=9, num_rx=6, num_streams=4):
    rng = np.random.default_rng(seed)
    channels = rng.standard_normal(
        (num, num_rx, num_streams)
    ) + 1j * rng.standard_normal((num, num_rx, num_streams))
    return channels.astype(dtype)


SERIAL_OF = {
    "plain": plain_qr,
    "sorted": sorted_qr,
    "fcsd": lambda channel: fcsd_sorted_qr(channel, 1, 0.05),
}
STACKED_OF = {
    "plain": stacked_plain_qr,
    "sorted": stacked_sorted_qr,
    "fcsd": lambda channels: stacked_fcsd_sorted_qr(channels, 1, 0.05),
}


class TestStackedMatchesPerChannel:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("method", ["plain", "sorted", "fcsd"])
    def test_machine_precision_across_dtypes(self, method, dtype):
        channels = block(dtype, seed=hash(method) % 1000)
        stacked = STACKED_OF[method](channels)
        assert len(stacked) == channels.shape[0]
        for b in range(channels.shape[0]):
            serial = SERIAL_OF[method](channels[b])
            np.testing.assert_array_equal(serial.permutation,
                                          stacked[b].permutation)
            np.testing.assert_allclose(serial.q, stacked[b].q, atol=1e-12)
            np.testing.assert_allclose(serial.r, stacked[b].r, atol=1e-12)

    @pytest.mark.parametrize("method", ["plain", "sorted", "fcsd"])
    def test_bit_identical_complex128(self, method):
        channels = block(np.complex128, seed=7)
        stacked = STACKED_OF[method](channels)
        for b in range(channels.shape[0]):
            serial = SERIAL_OF[method](channels[b])
            assert np.array_equal(serial.q, stacked[b].q)
            assert np.array_equal(serial.r, stacked[b].r)

    def test_valid_decompositions(self):
        channels = block(np.complex128, seed=3)
        for qr, channel in zip(stacked_sorted_qr(channels), channels):
            np.testing.assert_allclose(
                qr.q @ qr.r, channel[:, qr.permutation], atol=1e-9
            )
            np.testing.assert_allclose(
                qr.q.conj().T @ qr.q, np.eye(qr.q.shape[1]), atol=1e-9
            )


class TestStackedAccounting:
    SERIAL_COUNTED = {
        "plain": lambda ch, counter: plain_qr(ch, counter=counter),
        "sorted": lambda ch, counter: sorted_qr(ch, counter=counter),
        "fcsd": lambda ch, counter: fcsd_sorted_qr(
            ch, 1, 0.05, counter=counter
        ),
    }
    STACKED_COUNTED = {
        "plain": lambda ch, counter: stacked_plain_qr(ch, counter=counter),
        "sorted": lambda ch, counter: stacked_sorted_qr(ch, counter=counter),
        "fcsd": lambda ch, counter: stacked_fcsd_sorted_qr(
            ch, 1, 0.05, counter=counter
        ),
    }

    @pytest.mark.parametrize("method", ["plain", "sorted", "fcsd"])
    def test_flops_match_per_channel(self, method):
        channels = block(np.complex128, seed=11)
        serial_counter, stacked_counter = FlopCounter(), FlopCounter()
        for b in range(channels.shape[0]):
            self.SERIAL_COUNTED[method](channels[b], serial_counter)
        self.STACKED_COUNTED[method](channels, stacked_counter)
        assert serial_counter.real_mults == stacked_counter.real_mults
        assert serial_counter.real_adds == stacked_counter.real_adds


class TestStackedValidation:
    def test_two_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            stacked_plain_qr(np.zeros((4, 3), dtype=complex))

    def test_wide_block_rejected(self):
        with pytest.raises(DimensionError):
            stacked_sorted_qr(np.zeros((2, 3, 5), dtype=complex))

    def test_empty_block_is_empty_list(self):
        assert stacked_plain_qr(np.zeros((0, 4, 3), dtype=complex)) == []

    def test_fcsd_bad_expansion_rejected(self):
        with pytest.raises(DimensionError):
            stacked_fcsd_sorted_qr(np.zeros((2, 4, 3), dtype=complex), 9)
