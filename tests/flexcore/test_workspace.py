"""The walk workspace: allocated once, aliased by nothing a caller holds.

The stacked kernels walk inside one grow-only workspace, owned by the
``ResidentContextStore`` they are handed
(``repro.flexcore.detector.WalkWorkspace``).  Two contracts follow:

* a warm call allocates nothing with a path axis — gated here with
  ``tracemalloc``, which numpy reports its buffers to;
* nothing a public entry point returns lives in the workspace, and a
  walk made without one (``scratch=None``) owns what it returns.
"""

import tracemalloc

import numpy as np
import pytest

import repro.flexcore.detector as detector_module
from repro.flexcore.detector import FlexCoreDetector, WalkWorkspace
from repro.flexcore.soft import SoftFlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.residency import ResidentContextStore
from repro.utils.flops import NULL_COUNTER
from repro.utils.xp import resolve_array_module
from tests.conftest import make_block

NUMPY = resolve_array_module("numpy")
SYSTEM = MimoSystem(8, 8, QamConstellation(16))
#: The benchmark's coalesced drain flush: 32 subcarriers x 7 frames.
SUBCARRIERS, FRAMES = 32, 7


def block(detector, seed):
    channels, received, noise_var = make_block(
        SYSTEM, SUBCARRIERS, FRAMES, 20.0, seed
    )
    return detector.prepare_many(channels, noise_var), received, noise_var


def peak_kib_of_a_warm_call(call) -> float:
    """Traced memory one more call peaks at above where it started,
    after two calls have grown every buffer."""
    call()
    call()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / 1024.0


class TestAWarmCallAllocatesNothingWithAPathAxis:
    def test_hard_block(self):
        # One (32, 7, 16, 64) symbols slab alone is 1792 KiB; the loop
        # that allocated it and its level temporaries peaked at 3.9 MiB.
        detector = FlexCoreDetector(SYSTEM, 64)
        contexts, received, _ = block(detector, 18)
        store = ResidentContextStore()
        peak = peak_kib_of_a_warm_call(
            lambda: detector.detect_block_prepared(
                contexts, received, xp=NUMPY, store=store
            )
        )
        assert peak < 512.0

    def test_soft_block(self):
        # Reaches 0.47 MiB (allocating loop: 2.3 MiB): what is left is
        # a tile's sort order, its sorted PEDs and the (16, 7, Nt * bits)
        # tail of the LLR arithmetic — as wide as a path plane here.
        detector = SoftFlexCoreDetector(SYSTEM, 32)
        contexts, received, noise_var = block(detector, 19)
        store = ResidentContextStore()
        peak = peak_kib_of_a_warm_call(
            lambda: detector.detect_soft_block_prepared(
                contexts, received, noise_var, xp=NUMPY, store=store
            )
        )
        assert peak < 640.0

    def test_the_store_owns_one_workspace_per_module_until_cleared(self):
        store = ResidentContextStore()
        workspace = store.scratch(WalkWorkspace)
        assert store.scratch(WalkWorkspace) is workspace
        store.clear()
        assert store.scratch(WalkWorkspace) is not workspace


class TestNothingACallerHoldsLivesInTheWorkspace:
    def setup_method(self):
        self.detector = SoftFlexCoreDetector(SYSTEM, 32)
        self.contexts, self.received, self.noise_var = block(self.detector, 20)
        _, self.other, _ = block(self.detector, 21)

    def test_hard_results_survive_the_next_call_on_the_store(self):
        store = ResidentContextStore()
        kernel = self.detector.detect_block_prepared
        indices, metadata = kernel(
            self.contexts, self.received, store=store
        )
        kept = indices.copy(), [dict(entry) for entry in metadata]
        again, _ = kernel(self.contexts, self.other, store=store)
        assert not np.array_equal(again, indices)
        assert np.array_equal(indices, kept[0]) and metadata == kept[1]

    def test_soft_results_survive_the_next_call_on_the_store(self):
        store = ResidentContextStore()
        kernel = self.detector.detect_soft_block_prepared
        indices, llrs, metadata = kernel(
            self.contexts, self.received, self.noise_var, store=store
        )
        kept = indices.copy(), llrs.copy(), [dict(entry) for entry in metadata]
        again = kernel(
            self.contexts, self.other, self.noise_var, store=store
        )
        assert not np.array_equal(again[1], llrs)
        assert np.array_equal(indices, kept[0])
        assert np.array_equal(llrs, kept[1])
        assert metadata == kept[2]

    def test_candidate_list_survives_a_later_walk(self):
        context = self.contexts[0]
        rotated = context.qr.rotate_received(self.received[0])
        indices, ped = self.detector._candidate_list(context, rotated, NULL_COUNTER)
        kept = np.array(indices), np.array(ped)
        self.detector._candidate_list(
            context, context.qr.rotate_received(self.other[0]), NULL_COUNTER
        )
        self.detector.detect_soft_prepared(context, self.other[0], self.noise_var)
        assert np.array_equal(indices, kept[0])
        assert np.array_equal(ped, kept[1])

    def walk(self, received, scratch=None):
        ((_, _, plan),) = self.detector._plans(self.contexts, NUMPY, None, None)
        planes = plan.grid_planes(np.matmul(received, plan.q_conj))
        return self.detector._walk(
            planes, plan, NUMPY, NULL_COUNTER, False, scratch
        )

    def test_a_walk_without_a_workspace_owns_its_result(self):
        first = self.walk(self.received)
        kept = [np.array(tensor) for tensor in first]
        self.walk(self.other)
        for tensor, copy in zip(first, kept):
            assert np.array_equal(tensor, copy)

    def test_a_walk_inside_a_workspace_is_overwritten_by_the_next(self):
        # The other side of the contract: the views are the workspace's.
        scratch = WalkWorkspace()
        symbols, ped, _ = self.walk(self.received, scratch)
        kept = np.array(ped)
        again = self.walk(self.other, scratch)
        assert np.shares_memory(symbols, again[0])
        assert not np.array_equal(ped, kept)


@pytest.mark.parametrize("limit", [1, 3000, 1 << 23])
def test_a_workspace_grown_by_one_shape_serves_every_other(limit, monkeypatch):
    """Grow-only buffers are re-carved per call: a big block, a small
    one and the big one again agree with private workspaces."""
    monkeypatch.setattr(detector_module, "MAX_CHUNK_ELEMENTS", limit)
    detector = SoftFlexCoreDetector(SYSTEM, 12)
    contexts, received, noise_var = block(detector, 22)
    store = ResidentContextStore()
    for rows in [slice(None), slice(3, 5), slice(None), slice(0, 1)]:
        args = contexts.select(np.arange(len(contexts))[rows]), received[rows], noise_var
        shared = detector.detect_soft_block_prepared(*args, store=store)
        private = detector.detect_soft_block_prepared(*args)
        assert np.array_equal(shared[0], private[0])
        assert np.array_equal(shared[1], private[1])
        assert shared[2] == private[2]
        hard = detector.detect_block_prepared(*args[:2], store=store)
        assert np.array_equal(hard[0], private[0])
