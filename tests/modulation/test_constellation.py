"""Tests for square QAM constellations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConstellationError
from repro.modulation.constellation import QamConstellation
from repro.utils.xp import CountingArrayModule


class TestGeometry:
    def test_unit_average_energy(self, constellation):
        energy = np.mean(np.abs(constellation.points) ** 2)
        assert energy == pytest.approx(1.0, rel=1e-12)

    def test_point_count(self, constellation):
        assert constellation.points.size == constellation.order
        assert np.unique(constellation.points).size == constellation.order

    def test_min_distance(self, constellation):
        points = constellation.points
        deltas = np.abs(points[:, None] - points[None, :])
        np.fill_diagonal(deltas, np.inf)
        assert deltas.min() == pytest.approx(constellation.min_distance, rel=1e-12)

    def test_grid_roundtrip(self, constellation):
        indices = np.arange(constellation.order)
        u, v = constellation.index_to_grid(indices)
        assert np.abs(u).max() == constellation.side - 1
        recovered = constellation.grid_to_index(u, v)
        assert np.array_equal(recovered, indices)

    def test_grid_to_index_invalid_marks_minus_one(self, qam16):
        out = qam16.grid_to_index(np.array([5, -5, 2, 1]), np.array([1, 1, 1, 7]))
        assert out.tolist() == [-1, -1, -1, -1]

    def test_rejects_non_square_orders(self):
        with pytest.raises(ConstellationError):
            QamConstellation(32)


class TestGrayLabelling:
    def test_nearest_neighbours_differ_in_one_bit(self, constellation):
        # Every pair of points at minimum distance differs in exactly 1 bit.
        points = constellation.points
        indices = np.arange(constellation.order)
        bits = [constellation.indices_to_bits([i]) for i in indices]
        for i in indices:
            deltas = np.abs(points - points[i])
            neighbours = indices[
                (deltas > 0) & (deltas < 1.001 * constellation.min_distance)
            ]
            for j in neighbours:
                assert int(np.sum(bits[i] != bits[j])) == 1


class TestBitMapping:
    @given(st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_modulate_demap_roundtrip(self, seed):
        constellation = QamConstellation(16)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 4 * 17).astype(np.uint8)
        symbols = constellation.modulate(bits)
        indices = constellation.slice_to_index(symbols)
        assert np.array_equal(constellation.indices_to_bits(indices), bits)


class TestSlicing:
    @given(
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_slice_is_nearest_point(self, re, im):
        constellation = QamConstellation(16)
        z = complex(re, im)
        sliced = constellation.slice(np.array([z]))[0]
        distances = np.abs(constellation.points - z)
        assert abs(z - sliced) <= distances.min() + 1e-12

    def test_slice_far_outside_clamps_to_corner(self, qam16):
        z = np.array([100.0 + 100.0j])
        index = qam16.slice_to_index(z)[0]
        corner = qam16.points[index]
        assert corner.real == pytest.approx(3 * qam16.scale)
        assert corner.imag == pytest.approx(3 * qam16.scale)

    def test_slice_on_points_is_identity(self, constellation):
        indices = np.arange(constellation.order)
        assert np.array_equal(
            constellation.slice_to_index(constellation.points), indices
        )


class TestExactOrder:
    def test_exact_order_is_permutation(self, qam16):
        order = qam16.exact_order(0.3 + 0.2j)
        assert sorted(order.tolist()) == list(range(16))

    def test_exact_order_sorted_by_distance(self, qam16):
        z = 0.37 - 0.81j
        order = qam16.exact_order(z)
        distances = np.abs(qam16.points[order] - z)
        assert np.all(np.diff(distances) >= -1e-12)


class TestEquality:
    def test_equality_and_hash(self):
        assert QamConstellation(16) == QamConstellation(16)
        assert QamConstellation(16) != QamConstellation(64)
        assert hash(QamConstellation(16)) == hash(QamConstellation(16))


class TestGridAndDeviceTables:
    def test_bits_to_indices_inverts_indices_to_bits(self, constellation):
        indices = np.arange(constellation.order)[::-1]
        bits = constellation.indices_to_bits(indices)
        assert bits.size == constellation.order * constellation.bits_per_symbol
        assert np.array_equal(constellation.bits_to_indices(bits), indices)
        # MSB first: the last index's first bit is the top bit of order - 1.
        assert bits[0] == 1 and not bits[-constellation.bits_per_symbol :].any()

    def test_slice_to_grid_is_the_nearest_odd_point_inside(self, constellation, rng):
        edge = constellation.side - 1
        received = (rng.normal(size=400) + 1j * rng.normal(size=400)) * 1.5
        u, v = constellation.slice_to_grid(received)
        for axis in (u, v):
            assert (np.abs(axis) % 2 == 1).all() and (np.abs(axis) <= edge).all()
        nearest = np.argmin(np.abs(constellation.points[None, :] - received[:, None]), axis=1)
        assert np.array_equal(constellation.grid_to_index(u, v), nearest)

    def test_device_constant_uploads_once_per_module(self, constellation):
        counting, other = CountingArrayModule("numpy"), CountingArrayModule("numpy")
        first = constellation.device_constant(counting, constellation.points)
        assert constellation.device_constant(counting, constellation.points) is first
        assert np.array_equal(first, constellation.points)
        assert counting.uploads == 1
        assert counting.upload_bytes == constellation.points.nbytes
        constellation.device_constant(other, constellation.points)
        assert other.uploads == 1 and counting.uploads == 1
