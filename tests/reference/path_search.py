"""Frozen reference: the scalar §3.1.1 heap and the exhaustive top-N.

:func:`find_promising_paths` is the paper's pre-processing search (§3.1.1)
for one channel: a best-first heap over position vectors with the
``w <= l`` duplicate-avoidance rule, an optional cumulative-``Pc``
stopping threshold and the parallel-expansion batch.
:func:`brute_force_top_paths` enumerates every position vector and sorts
by ``Pc``.  Both are kept *as oracles, not second implementations*:
nothing under ``src/`` imports them, they are never optimised, and the
tests pin :func:`repro.flexcore.preprocessing.find_promising_paths_block`
(both lanes) and a-FlexCore's prefix rule
(:func:`repro.flexcore.preprocessing.covering_prefix`) to them.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import ConfigurationError
from repro.flexcore.preprocessing import PreprocessingResult, _check_pe
from repro.flexcore.probability import LevelErrorModel
from repro.utils.flops import NULL_COUNTER, FlopCounter


def find_promising_paths(
    model: LevelErrorModel,
    num_paths: int,
    max_rank: int,
    stop_threshold: float | None = None,
    batch_size: int = 1,
    counter: FlopCounter = NULL_COUNTER,
) -> PreprocessingResult:
    """Best-first search for the ``num_paths`` most promising paths.

    Parameters
    ----------
    model:
        Per-level error probabilities for the current channel, each in
        ``[0, 1]`` (anything else, NaN included, is a
        ``ConfigurationError``).
    num_paths:
        ``N_PE`` — processing elements available.
    max_rank:
        Largest admissible rank per level (``|Q|``).
    stop_threshold:
        Optional cumulative-``Pc`` stopping criterion (§3.1.1).
    batch_size:
        Frontier nodes expanded per round (parallel pre-processing).
    """
    if num_paths <= 0:
        raise ConfigurationError("num_paths must be positive")
    if max_rank <= 0:
        raise ConfigurationError("max_rank must be positive")
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    pe = model.pe
    _check_pe(pe)
    num_levels = pe.size
    if num_paths > max_rank**num_levels:
        num_paths = int(max_rank**num_levels)

    root = (1,) * num_levels
    root_probability = float(np.prod(1.0 - pe))
    counter.add_real_mults(num_levels - 1)  # forming the root product
    multiplications = num_levels - 1

    # Heap entries: (-Pc, serial, position tuple, last incremented index).
    serial = 0
    frontier: list[tuple[float, int, tuple[int, ...], int]] = [
        (-root_probability, serial, root, num_levels - 1)
    ]
    selected: list[tuple[int, ...]] = []
    selected_probability: list[float] = []
    cumulative = 0.0
    candidate_peak = 1
    stopped_early = False

    while frontier and len(selected) < num_paths:
        round_size = min(batch_size, num_paths - len(selected), len(frontier))
        batch = [heapq.heappop(frontier) for _ in range(round_size)]
        for neg_probability, _, position, last_index in batch:
            probability = -neg_probability
            selected.append(position)
            selected_probability.append(probability)
            cumulative += probability
            # Children: increment element w for w <= last_index (dedup rule).
            for w in range(last_index + 1):
                child_rank = position[w] + 1
                if child_rank > max_rank:
                    continue
                child = position[:w] + (child_rank,) + position[w + 1 :]
                child_probability = probability * pe[w]
                counter.add_real_mults(1)
                multiplications += 1
                serial += 1
                heapq.heappush(
                    frontier, (-child_probability, serial, child, w)
                )
        candidate_peak = max(candidate_peak, len(frontier))
        if stop_threshold is not None and cumulative >= stop_threshold:
            stopped_early = True
            break

    return PreprocessingResult(
        position_vectors=np.array(selected, dtype=np.int64).reshape(
            len(selected), num_levels
        ),
        probabilities=np.array(selected_probability),
        expanded_nodes=len(selected),
        real_multiplications=multiplications,
        candidate_peak=candidate_peak,
        stopped_early=stopped_early,
    )




def brute_force_top_paths(
    model: LevelErrorModel, num_paths: int, max_rank: int
) -> PreprocessingResult:
    """Exhaustive reference implementation (tests/ablations only).

    Enumerates all ``max_rank**Nt`` position vectors and sorts by ``Pc``.
    """
    num_levels = model.num_levels
    total = max_rank**num_levels
    if total > (1 << 22):
        raise ConfigurationError("brute force infeasible for this size")
    grids = np.indices((max_rank,) * num_levels).reshape(num_levels, total).T + 1
    probabilities = model.path_probabilities(grids)
    order = np.argsort(-probabilities, kind="stable")[:num_paths]
    return PreprocessingResult(
        position_vectors=grids[order],
        probabilities=probabilities[order],
        expanded_nodes=int(total),
        real_multiplications=0,
        candidate_peak=int(total),
        stopped_early=False,
    )
