"""The layer ledger, measured from outside.

Each function times calls into one layer's public functions on a
workload's own seeded block, so a layer's cost is known at every
workload's shape — including where the workload itself never pays it
(``warm_walk`` never runs the tree search; the ledger still says what
it would cost).  Layer names are module names.
"""

from __future__ import annotations

import numpy as np

from flexbench import measure
from repro.api import build_stack
from repro.flexcore.preprocessing import find_promising_paths_block
from repro.flexcore.probability import LevelErrorModel
from repro.mimo.qr import stacked_sorted_qr
from repro.ofdm.lte import SLOT_DURATION_S
from repro.runtime.backends import ArrayBackend
from repro.runtime.batch import UplinkBatch
from repro.runtime.cache import ContextCache, block_context_keys
from repro.runtime.residency import ResidentContextStore
from repro.runtime.service import DetectionService
from repro.utils.flops import FlopCounter
from repro.utils.xp import CountingArrayModule, resolve_array_module


def kernel_ledger(
    detector, block, noise_var: float, use_soft: bool, budget_s: float
) -> dict:
    """Cold-path and walk-kernel costs on one ``(S, F)`` block, each
    timed for ``budget_s`` (and at least five calls)."""
    system = detector.system
    channels, received = block.channels, block.received
    vectors = block.vectors
    ledger = {}

    def median_us(call) -> float:
        return measure.median_us(call, budget_s)

    ledger["qr.block_us"] = median_us(lambda: stacked_sorted_qr(channels))
    diagonals = np.stack(
        [np.diagonal(qr.r) for qr in stacked_sorted_qr(channels)]
    )

    def error_model():
        return LevelErrorModel.from_channels(
            diagonals,
            noise_var,
            system.constellation,
            formula=detector.pe_formula,
        )

    ledger["probability.model_block_us"] = median_us(error_model)
    models = error_model()

    def tree_search():
        return find_promising_paths_block(
            models,
            num_paths=detector.num_paths,
            max_rank=system.constellation.order,
            stop_threshold=detector.stop_threshold,
            batch_size=detector.batch_expansion,
        )

    ledger["preprocessing.tree_search_block_us"] = median_us(tree_search)
    ledger["preprocessing.real_mults_per_channel"] = float(
        np.mean([result.real_multiplications for result in tree_search()])
    )
    ledger["detector.prepare_many_us"] = median_us(
        lambda: detector.prepare_many(channels, noise_var)
    )

    contexts = detector.prepare_many(channels, noise_var)
    xp = resolve_array_module("numpy")
    store = ResidentContextStore()
    walk_us = median_us(
        lambda: detector.detect_block_prepared(
            contexts, received, xp=xp, store=store
        )
    )
    counter = FlopCounter()
    detector.detect_block_prepared(
        contexts, received, counter=counter, xp=xp, store=store
    )
    ledger["detector.walk_block_us"] = walk_us
    ledger["detector.walk_us_per_vector"] = walk_us / vectors
    ledger["detector.walk_flops_per_vector"] = counter.total_flops / vectors
    ledger["detector.walk_gflops"] = counter.total_flops / walk_us / 1e3
    if use_soft:
        soft_us = median_us(
            lambda: detector.detect_soft_block_prepared(
                contexts, received, noise_var, xp=xp, store=store
            )
        )
        ledger["soft.walk_block_us"] = soft_us
        ledger["soft.us_per_vector"] = soft_us / vectors

    ledger["cache.keys_block_us"] = median_us(
        lambda: block_context_keys(channels, noise_var)
    )
    cache = ContextCache()
    cache.get_or_prepare_block(detector, channels, noise_var)
    ledger["cache.warm_lookup_block_us"] = median_us(
        lambda: cache.get_or_prepare_block(detector, channels, noise_var)
    )
    return ledger


def api_ledger(config, import_s: float, typical_latency_s: float) -> dict:
    """What the facade costs to bring up, and ROADMAP's "% of the LTE
    slot" (as a ratio) for the workload's typical latency."""
    return {
        "api.import_s": import_s,
        "api.build_stack_ms": measure.median_us(
            lambda: build_stack(config).close(), 0.05
        )
        / 1e3,
        "api.slot_fraction": typical_latency_s / SLOT_DURATION_S,
    }


def transfer_ledger(detector, blocks, noise_var: float, use_soft: bool) -> dict:
    """Bytes crossing the host/device boundary per block — *computed* by
    ``CountingArrayModule`` on the CPU, in a pass of its own so metering
    never taxes a timed run.  One warm cycle, then one counted cycle."""
    module = CountingArrayModule("numpy")
    cache = ContextCache()
    with DetectionService(ArrayBackend(array_module=module)) as service:
        uploads = downloads = 0
        for counted in (False, True):
            for block in blocks:
                batch = UplinkBatch(block.channels, block.received, noise_var)
                result = service.detect(
                    detector, batch, cache=cache, use_soft=use_soft
                )
                if counted:
                    uploads += result.stats["transfers"].upload_bytes
                    downloads += result.stats["transfers"].download_bytes
    return {
        "xp.upload_bytes_per_block": uploads / len(blocks),
        "xp.download_bytes_per_block": downloads / len(blocks),
    }
