"""Tests for the indoor testbed simulator (WARP substitute)."""

import numpy as np
import pytest

from repro.channel.testbed import IndoorTestbed
from repro.channel.testbed import TestbedGeometry as Geometry
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def testbed():
    return IndoorTestbed(num_rx=8, rng=42)


class TestGeometry:
    def test_wavelength(self):
        geometry = Geometry()
        assert geometry.wavelength_m == pytest.approx(0.0577, abs=0.001)

    def test_invalid_room_raises(self):
        with pytest.raises(ConfigurationError):
            IndoorTestbed(num_rx=4, geometry=Geometry(room_width_m=-1))


class TestUserDrops:
    def test_positions_inside_room_and_outside_keepout(self, testbed):
        positions = testbed.drop_users(40)
        geometry = testbed.geometry
        assert (positions[:, 0] >= 0).all()
        assert (positions[:, 0] <= geometry.room_width_m).all()
        assert (positions[:, 1] <= geometry.room_depth_m).all()
        distances = np.hypot(
            positions[:, 0] - geometry.ap_position[0],
            positions[:, 1] - geometry.ap_position[1],
        )
        assert (distances >= geometry.min_user_distance_m).all()


class TestSounding:
    def test_trace_shape(self, testbed):
        trace = testbed.sound_user((3.0, 5.0), num_frames=2, num_subcarriers=16)
        assert trace.response.shape == (2, 16, 8, 1)

    def test_power_control_normalises_gain(self, testbed):
        trace = testbed.sound_user((4.0, 6.0), num_frames=3, num_subcarriers=24)
        gain = trace.average_gain_per_user()[0]
        # Residual spread is at most +-1.5 dB around unity.
        assert 10 ** (-0.15) * 0.99 <= gain <= 10 ** (0.15) * 1.01

    def test_frequency_selectivity(self, testbed):
        """Multi-tap channels must vary across subcarriers."""
        trace = testbed.sound_user((9.0, 9.0), num_frames=1, num_subcarriers=48)
        response = trace.response[0, :, 0, 0]
        variation = np.std(np.abs(response)) / np.mean(np.abs(response))
        assert variation > 0.05

    def test_frames_differ(self, testbed):
        trace = testbed.sound_user((5.0, 4.0), num_frames=2, num_subcarriers=8)
        assert not np.allclose(trace.response[0], trace.response[1])


class TestUplinkTrace:
    def test_full_trace_dimensions(self):
        testbed = IndoorTestbed(num_rx=12, rng=7)
        trace = testbed.generate_uplink_trace(
            num_users=12, num_frames=2, num_subcarriers=8
        )
        assert trace.response.shape == (2, 8, 12, 12)
        assert trace.metadata["num_users"] == 12

    def test_user_snr_spread_within_3db(self):
        testbed = IndoorTestbed(num_rx=8, rng=11)
        trace = testbed.generate_uplink_trace(
            num_users=8, num_frames=2, num_subcarriers=16
        )
        gains_db = 10 * np.log10(trace.average_gain_per_user())
        assert gains_db.max() - gains_db.min() <= 3.0 + 0.3

    def test_channels_are_not_degenerate(self):
        testbed = IndoorTestbed(num_rx=8, rng=3)
        trace = testbed.generate_uplink_trace(
            num_users=8, num_frames=1, num_subcarriers=4
        )
        for sc in range(4):
            matrix = trace.response[0, sc]
            smallest = np.linalg.svd(matrix, compute_uv=False)[-1]
            assert smallest > 1e-6


class TestRicianTap:
    """The first tap is Rician: a LoS steering vector plus scatter."""

    def test_large_k_is_the_los_steering_vector(self):
        testbed = IndoorTestbed(num_rx=4, num_taps=1, rician_k_db=60.0, rng=0)
        position = np.array([3.0, 5.0])
        tap = testbed._user_taps(position)[0]
        ap_x, ap_y = testbed.geometry.ap_position
        los = testbed._steering_vector(np.arctan2(position[0] - ap_x, position[1] - ap_y))
        assert abs(np.vdot(los, tap)) / testbed.num_rx == pytest.approx(1.0, abs=0.01)
        assert np.allclose(np.abs(tap), 1.0, atol=0.01)

    @pytest.mark.parametrize("k_db", [-10.0, 4.0, 30.0])
    def test_unit_power_for_any_k(self, k_db):
        testbed = IndoorTestbed(num_rx=4, num_taps=1, rician_k_db=k_db, rng=1)
        taps = np.stack([testbed._user_taps(np.array([3.0, 5.0])) for _ in range(400)])
        assert np.mean(np.abs(taps) ** 2) == pytest.approx(1.0, rel=0.1)
