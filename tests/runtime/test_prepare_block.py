"""The batched cold path end to end: ``prepare_many`` bit-identity.

``FlexCoreDetector.prepare_many`` runs stacked QR → stacked error model
→ lockstep tree search with no per-channel Python, and every layer above
it (``ContextCache.get_or_prepare_block``, ``DetectionService`` on every
backend) now rides that path on cache misses.  These tests pin the
contract that makes the batching safe: contexts, detection outputs, and
charged FLOPs are bit-identical to the per-channel spelling, for the
hard, soft, and adaptive detectors, on the serial and array backends.
"""

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channels
from repro.flexcore.adaptive import AdaptiveFlexCoreDetector
from repro.flexcore.detector import FlexCoreContext, FlexCoreDetector
from repro.flexcore.preprocessing import PreprocessingResult
from repro.flexcore.probability import LevelErrorModel
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.qr import QrDecomposition
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.runtime import ContextCache
from repro.utils.flops import FlopCounter
from tests.conftest import make_stack

NUM_SUBCARRIERS = 12
NUM_FRAMES = 4


@pytest.fixture(scope="module")
def block():
    system = MimoSystem(4, 4, QamConstellation(16))
    rng = np.random.default_rng(42)
    channels = rayleigh_channels(NUM_SUBCARRIERS, 4, 4, rng)
    noise_var = noise_variance_for_snr_db(18.0)
    received = np.empty(
        (NUM_SUBCARRIERS, NUM_FRAMES, 4), dtype=np.complex128
    )
    for sc in range(NUM_SUBCARRIERS):
        indices = random_symbol_indices(
            NUM_FRAMES, 4, system.constellation, rng
        )
        received[sc] = apply_channel(
            channels[sc], system.constellation.points[indices], noise_var, rng
        )
    return system, channels, received, noise_var


DETECTORS = {
    "hard": lambda system: FlexCoreDetector(system, num_paths=16),
    "soft": lambda system: SoftFlexCoreDetector(system, num_paths=16),
    "adaptive": lambda system: AdaptiveFlexCoreDetector(
        system, num_paths=16, probability_target=0.95
    ),
    "hard-stop-batch": lambda system: FlexCoreDetector(
        system, num_paths=16, stop_threshold=0.99, batch_expansion=4
    ),
}


def assert_contexts_identical(serial, batched):
    assert len(serial) == len(batched)
    for a, b in zip(serial, batched):
        assert np.array_equal(a.qr.q, b.qr.q)
        assert np.array_equal(a.qr.r, b.qr.r)
        assert np.array_equal(a.qr.permutation, b.qr.permutation)
        assert np.array_equal(a.diag, b.diag)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(
            a.preprocessing.position_vectors, b.preprocessing.position_vectors
        )
        assert np.array_equal(
            a.preprocessing.probabilities, b.preprocessing.probabilities
        )
        assert (
            a.preprocessing.real_multiplications
            == b.preprocessing.real_multiplications
        )
        assert a.preprocessing.candidate_peak == b.preprocessing.candidate_peak
        assert a.preprocessing.stopped_early == b.preprocessing.stopped_early
        assert a.active_paths == b.active_paths


@pytest.mark.parametrize("kind", sorted(DETECTORS))
def test_prepare_many_bit_identical_to_per_channel(block, kind):
    system, channels, _, noise_var = block
    detector = DETECTORS[kind](system)
    serial_counter, block_counter = FlopCounter(), FlopCounter()
    serial = [
        detector.prepare(channels[c], noise_var, counter=serial_counter)
        for c in range(channels.shape[0])
    ]
    batched = detector.prepare_many(
        channels, noise_var, counter=block_counter
    )
    assert_contexts_identical(serial, batched)
    assert serial_counter.real_mults == block_counter.real_mults
    assert serial_counter.real_adds == block_counter.real_adds


@pytest.mark.parametrize(
    "num_streams, order, num_paths, snr_db",
    [(8, 16, 64, 21.0), (12, 64, 128, 27.0)],
    ids=["8x8-16qam-64paths", "12x12-64qam-128paths"],
)
def test_production_blocks_match_per_channel_prepare(
    num_streams, order, num_paths, snr_db
):
    """The 64-channel blocks the benchmark runs cold, against each channel
    prepared alone."""
    system = MimoSystem(num_streams, num_streams, QamConstellation(order))
    channels = rayleigh_channels(
        64, num_streams, num_streams, np.random.default_rng(2017)
    )
    noise_var = noise_variance_for_snr_db(snr_db)
    detector = FlexCoreDetector(system, num_paths=num_paths)
    serial_counter, block_counter = FlopCounter(), FlopCounter()
    serial = [
        detector.prepare(channel, noise_var, counter=serial_counter)
        for channel in channels
    ]
    batched = detector.prepare_many(channels, noise_var, counter=block_counter)
    assert_contexts_identical(serial, batched)
    assert serial_counter.real_mults == block_counter.real_mults


def test_adaptive_trim_applies_on_the_block_path(block):
    """The a-FlexCore trim runs on the block path (one vectorised pass
    over the block), not only in single-channel prepare."""
    system, channels, _, noise_var = block
    detector = AdaptiveFlexCoreDetector(
        system, num_paths=16, probability_target=0.5
    )
    contexts = detector.prepare_many(channels, noise_var)
    assert any(
        c.active_paths < c.preprocessing.position_vectors.shape[0]
        for c in contexts
    )
    for c in contexts:
        cumulative = np.cumsum(c.preprocessing.probabilities)
        covered = int(np.searchsorted(cumulative, 0.5)) + 1
        assert c.active_paths == min(
            covered, c.preprocessing.position_vectors.shape[0]
        )


@pytest.mark.parametrize("backend", ["serial", "array"])
@pytest.mark.parametrize("kind", ["hard", "soft", "adaptive"])
def test_cold_miss_path_equivalent_across_backends(block, backend, kind):
    """A cold engine pass (all misses → ``get_or_prepare_block`` →
    ``prepare_many``) must produce the same decisions and cache stats as
    per-subcarrier prepares feeding the same detector."""
    system, channels, received, noise_var = block
    detector = DETECTORS[kind](system)
    engine = make_stack(detector, backend=backend)
    cold = engine.detect_batch(channels, received, noise_var)
    assert cold.stats["cache"].misses == NUM_SUBCARRIERS

    reference_cache = ContextCache()
    contexts = [
        reference_cache.get_or_prepare(detector, channels[sc], noise_var)
        for sc in range(NUM_SUBCARRIERS)
    ]
    reference = np.stack(
        [
            detector.detect_prepared(contexts[sc], received[sc]).indices
            for sc in range(NUM_SUBCARRIERS)
        ]
    )
    assert np.array_equal(cold.indices, reference)


def test_warm_path_unchanged_by_block_prepare(block):
    """Replaying the block still serves every context from the cache."""
    system, channels, received, noise_var = block
    engine = make_stack(
        FlexCoreDetector(system, num_paths=16), backend="serial"
    )
    cold = engine.detect_batch(channels, received, noise_var)
    warm = engine.detect_batch(channels, received, noise_var)
    assert warm.stats["cache"].hits == NUM_SUBCARRIERS
    assert warm.stats["cache"].misses == 0
    assert np.array_equal(cold.indices, warm.indices)


@pytest.mark.usefixtures("lane")
@pytest.mark.parametrize("kind", ["hard", "soft", "adaptive"])
def test_cold_array_batch_builds_no_per_channel_object(block, kind, monkeypatch):
    """A miss block stays arrays from the QR to the walk: not one
    per-channel QR, error model, search result or context is built."""
    system, channels, received, noise_var = block
    built = []
    for cls in (QrDecomposition, LevelErrorModel, PreprocessingResult, FlexCoreContext):

        def spy(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    engine = make_stack(DETECTORS[kind](system), backend="array")
    cold = engine.detect_batch(channels, received, noise_var, use_soft=kind == "soft")
    assert cold.stats["cache"].misses == NUM_SUBCARRIERS
    assert cold.stats["stacked"]
    assert built == []


@pytest.mark.parametrize("backend", ["serial", "array"])
def test_empty_batch_detects_nothing(block, backend):
    """No subcarrier, no prepare: the cache hands the kernel the
    detector's own empty block."""
    system = block[0]
    engine = make_stack(FlexCoreDetector(system, num_paths=16), backend=backend)
    empty = engine.detect_batch(
        np.zeros((0, 4, 4), dtype=complex), np.zeros((0, 2, 4), dtype=complex), 0.1
    )
    assert empty.indices.shape == (0, 2, 4)
    assert empty.stats["cache"].misses == 0
