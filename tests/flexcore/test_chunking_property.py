"""Property: detection output is invariant to the chunking bound.

``MAX_CHUNK_ELEMENTS`` — one constant, next to the walk core — caps how
many float64 values a tile of the walk keeps live; it sizes the working
set and nothing else.  The walk has no coupling between subcarriers or
frames, so any positive bound must yield bit-identical hard decisions,
LLRs, and FLOP totals — for the per-subcarrier entry points (tiles over
frames) and the stacked block kernels (tiles over subcarriers first)
alike.
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
from repro.runtime.service import clamp_context_paths
from repro.utils.flops import FlopCounter
from repro.utils.xp import default_array_module

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

# A ragged stacked block: groups of 4, 2 and 1 subcarriers with 24, 9 and
# 1 paths, interleaved, so small limits cut frames, larger ones cut a
# group's subcarriers unevenly, and the largest cut nothing.
RAGGED_PATHS = [24, 9, 24, 1, 24, 9, 24]


def _ragged_workload():
    rng = np.random.default_rng(2027)
    channels = rayleigh_channels(len(RAGGED_PATHS), 4, 4, rng)
    received = np.stack(
        [
            apply_channel(
                channel,
                SYSTEM.constellation.points[
                    random_symbol_indices(NUM_FRAMES, 4, SYSTEM.constellation, rng)
                ],
                NOISE_VAR,
                rng,
            )
            for channel in channels
        ]
    )
    contexts = [
        clamp_context_paths(context, paths)
        for context, paths in zip(
            SOFT.prepare_many(channels, NOISE_VAR), RAGGED_PATHS
        )
    ]
    return contexts, received


RAGGED_CONTEXTS, RAGGED_RECEIVED = _ragged_workload()


def _ragged(counter):
    # On the module REPRO_ARRAY_BACKEND names: CI repeats this under torch.
    walk = dict(counter=counter, xp=default_array_module())
    hard = HARD.detect_block_prepared(RAGGED_CONTEXTS, RAGGED_RECEIVED, **walk)
    soft = SOFT.detect_soft_block_prepared(
        RAGGED_CONTEXTS, RAGGED_RECEIVED, NOISE_VAR, **walk
    )
    return hard, soft


REFERENCE_RAGGED_COUNTER = FlopCounter()
REFERENCE_RAGGED = _ragged(REFERENCE_RAGGED_COUNTER)


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


@settings(max_examples=40, deadline=None)
@given(limit=chunk_limits)
def test_ragged_stacked_block_invariant_to_tiling(limit):
    counter = FlopCounter()
    (indices, metadata), (soft_indices, llrs, soft_metadata) = _with_chunk_limit(
        limit, lambda: _ragged(counter)
    )
    (expected, expected_metadata), expected_soft = REFERENCE_RAGGED
    assert [entry["paths"] for entry in metadata] == RAGGED_PATHS
    assert np.array_equal(indices, expected)
    assert metadata == expected_metadata
    assert np.array_equal(soft_indices, expected_soft[0])
    if default_array_module().name == "numpy":
        assert np.array_equal(llrs, expected_soft[1])
    else:
        assert np.allclose(llrs, expected_soft[1], rtol=1e-9, atol=1e-9)
    assert soft_metadata == expected_soft[2]
    assert counter == REFERENCE_RAGGED_COUNTER


def test_the_limits_drawn_reach_subcarrier_tiles_and_frame_tiles():
    """The property above is only as good as the tilings it visits."""
    layout = detector_module.walk_layout(SYSTEM.num_streams)
    shapes = {
        _with_chunk_limit(
            limit, lambda: detector_module.tile_shape(4, NUM_FRAMES, 24, layout)
        )
        for limit in (1, 1000, 3000, 5000, 12000, 1 << 16)
    }
    # 3000 cuts 11 frames into 6 + 5, not 10 + 1: tiles are even.
    assert shapes == {(1, 1), (1, 2), (1, 6), (1, 11), (2, 11), (4, 11)}
