"""Tests for the fixed-complexity sphere decoder."""

import numpy as np
import pytest

from repro.detectors.fcsd import FcsdDetector
from repro.detectors.ml import MlDetector
from repro.detectors.sic import SicDetector
from repro.errors import ConfigurationError
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from tests.conftest import random_link


class TestEquivalences:
    def test_full_expansion_is_ml(self, rng):
        """L = Nt visits every leaf: FCSD degenerates to exact ML."""
        system = MimoSystem(2, 2, QamConstellation(16))
        ml = MlDetector(system)
        fcsd = FcsdDetector(system, num_expanded=2)
        for seed in range(4):
            local = np.random.default_rng(seed)
            channel, _, received, noise_var = random_link(
                system, 6.0, 25, local
            )
            assert np.array_equal(
                fcsd.detect(channel, received, noise_var).indices,
                ml.detect(channel, received, noise_var).indices,
            )

    def test_zero_expansion_is_greedy_path(self, small_system, rng):
        """L = 0 is the pure slicing cascade (one path)."""
        channel, _, received, noise_var = random_link(
            small_system, 15.0, 20, rng
        )
        fcsd = FcsdDetector(small_system, num_expanded=0, qr_method="sorted")
        sic = SicDetector(small_system)
        assert np.array_equal(
            fcsd.detect(channel, received, noise_var).indices,
            sic.detect(channel, received, noise_var).indices,
        )


class TestBehaviour:
    def test_num_paths(self, small_system):
        assert FcsdDetector(small_system, num_expanded=1).num_paths == 16
        assert FcsdDetector(small_system, num_expanded=2).num_paths == 256

    def test_noiseless_recovery(self, small_system, rng):
        channel, indices, received, _ = random_link(
            small_system, 200.0, 30, rng
        )
        result = FcsdDetector(small_system, 1).detect(channel, received, 1e-16)
        assert np.array_equal(result.indices, indices)

    def test_more_expansion_helps(self, small_system):
        errors = {}
        for level in (0, 1, 2):
            detector = FcsdDetector(small_system, num_expanded=level)
            count = 0
            for seed in range(15):
                rng = np.random.default_rng(seed)
                channel, indices, received, noise_var = random_link(
                    small_system, 9.0, 30, rng
                )
                result = detector.detect(channel, received, noise_var)
                count += np.count_nonzero(
                    (result.indices != indices).any(axis=1)
                )
            errors[level] = count
        assert errors[2] <= errors[1] <= errors[0]

    def test_chunking_consistent(self, small_system, rng):
        channel, _, received, noise_var = random_link(
            small_system, 12.0, 40, rng
        )
        import repro.flexcore.detector as walk_module

        detector = FcsdDetector(small_system, num_expanded=2)
        full = detector.detect(channel, received, noise_var).indices
        original = walk_module.MAX_CHUNK_ELEMENTS
        try:
            walk_module.MAX_CHUNK_ELEMENTS = 300
            chunked = detector.detect(channel, received, noise_var).indices
        finally:
            walk_module.MAX_CHUNK_ELEMENTS = original
        assert np.array_equal(full, chunked)


class TestValidation:
    def test_bad_expansion(self, small_system):
        with pytest.raises(ConfigurationError):
            FcsdDetector(small_system, num_expanded=4)

    def test_bad_qr_method(self, small_system):
        with pytest.raises(ConfigurationError):
            FcsdDetector(small_system, 1, qr_method="nope")
