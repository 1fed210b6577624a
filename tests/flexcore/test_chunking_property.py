"""Property: detection output is invariant to the chunking bound.

``MAX_CHUNK_ELEMENTS`` — one constant, next to the walk core — caps how
many float64 values a chunk of frames keeps live; it is purely a memory
knob.  The walk has no cross-vector coupling, so any positive bound must
yield bit-identical hard decisions, LLRs, and FLOP totals — for the
per-subcarrier entry points and the stacked block kernels alike.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.flexcore.detector as detector_module
from repro.channel.fading import rayleigh_channels
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.modulation.mapper import random_symbol_indices
from repro.utils.flops import FlopCounter

SYSTEM = MimoSystem(4, 4, QamConstellation(16))
NUM_SUBCARRIERS = 3
NUM_FRAMES = 11
NUM_PATHS = 24


def _workload():
    rng = np.random.default_rng(2026)
    channels = rayleigh_channels(NUM_SUBCARRIERS, 4, 4, rng)
    noise_var = noise_variance_for_snr_db(14.0)
    received = np.empty((NUM_SUBCARRIERS, NUM_FRAMES, 4), dtype=np.complex128)
    for sc in range(NUM_SUBCARRIERS):
        indices = random_symbol_indices(NUM_FRAMES, 4, SYSTEM.constellation, rng)
        received[sc] = apply_channel(
            channels[sc], SYSTEM.constellation.points[indices], noise_var, rng
        )
    return channels, received, noise_var


CHANNELS, RECEIVED, NOISE_VAR = _workload()
HARD = FlexCoreDetector(SYSTEM, num_paths=NUM_PATHS)
SOFT = SoftFlexCoreDetector(SYSTEM, num_paths=NUM_PATHS)
HARD_CONTEXT = HARD.prepare(CHANNELS[0], NOISE_VAR)
SOFT_CONTEXT = SOFT.prepare(CHANNELS[0], NOISE_VAR)
BLOCK_CONTEXTS = HARD.prepare_many(CHANNELS, NOISE_VAR)

REFERENCE_HARD = HARD.detect_prepared(HARD_CONTEXT, RECEIVED[0])
REFERENCE_SOFT = SOFT.detect_soft_prepared(SOFT_CONTEXT, RECEIVED[0], NOISE_VAR)
REFERENCE_BLOCK = HARD.detect_block_prepared(BLOCK_CONTEXTS, RECEIVED)


def _with_chunk_limit(limit, action):
    original = detector_module.MAX_CHUNK_ELEMENTS
    detector_module.MAX_CHUNK_ELEMENTS = limit
    try:
        return action()
    finally:
        detector_module.MAX_CHUNK_ELEMENTS = original


# Limits from 1 (every frame its own chunk) to past the point where the
# 11 frames of this workload fit one chunk.
chunk_limits = st.integers(min_value=1, max_value=1 << 16)


@settings(max_examples=25, deadline=None)
@given(limit=chunk_limits)
def test_detect_prepared_invariant_to_chunking(limit):
    counter = FlopCounter()
    result = _with_chunk_limit(
        limit,
        lambda: HARD.detect_prepared(HARD_CONTEXT, RECEIVED[0], counter=counter),
    )
    assert np.array_equal(result.indices, REFERENCE_HARD.indices)
    assert result.metadata == REFERENCE_HARD.metadata
    reference_counter = FlopCounter()
    HARD.detect_prepared(HARD_CONTEXT, RECEIVED[0], counter=reference_counter)
    assert counter.real_mults == reference_counter.real_mults
    assert counter.real_adds == reference_counter.real_adds


@settings(max_examples=25, deadline=None)
@given(limit=chunk_limits)
def test_block_kernel_invariant_to_chunking(limit):
    indices, metadata = _with_chunk_limit(
        limit,
        lambda: HARD.detect_block_prepared(BLOCK_CONTEXTS, RECEIVED),
    )
    assert np.array_equal(indices, REFERENCE_BLOCK[0])
    assert metadata == REFERENCE_BLOCK[1]


@settings(max_examples=15, deadline=None)
@given(limit=chunk_limits)
def test_soft_llrs_invariant_to_chunking(limit):
    result = _with_chunk_limit(
        limit,
        lambda: SOFT.detect_soft_prepared(SOFT_CONTEXT, RECEIVED[0], NOISE_VAR),
    )
    assert np.array_equal(result.indices, REFERENCE_SOFT.indices)
    assert np.array_equal(result.llrs, REFERENCE_SOFT.llrs)
    assert result.metadata == REFERENCE_SOFT.metadata
