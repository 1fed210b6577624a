"""FlexCore pre-processing: finding the most promising position vectors.

Implements the pre-processing tree of §3.1.1 (Fig. 5): nodes are position
vectors, the root is ``[1, 1, ..., 1]`` (always the most promising path),
and the ``w``-th child of a node increments the ``w``-th element.  A node
created by incrementing element ``l`` only spawns children ``w <= l``,
which gives every position vector exactly one generation path (increments
applied in non-increasing index order) — the paper's duplicate-avoidance
rule.

The search is best-first on ``Pc``: expand the most probable frontier
node, append its position vector to the output set ``E``, push its
children (each child's probability is the parent's times ``Pe(w)`` — one
real multiplication, the paper's complexity unit), and stop when
``|E| = N_PE`` or the cumulative probability mass in ``E`` crosses the
stopping threshold.

The paper additionally trims the candidate list ``L`` to ``N_PE`` entries.
Trimming only ever discards nodes that can never be selected (a node
ranked below the number of still-needed expansions stays below it, since
children rank no better than their parent), so a heap without trimming
returns identical results; we keep the heap and report the peak ``|L|``.

A *parallel expansion* mode (``batch_size > 1``) expands the ``B`` best
frontier nodes per round, modelling the parallel pre-processing variant
whose loss §3.1.1 reports as negligible for ``N_PE / B >= 10``.

:func:`find_promising_paths_block` runs ``C`` independent searches — one
per channel of a coherence block — in one call, on one of two lanes, the
walk's (:mod:`repro.native`).  The native lane is this heap in C
(``repro/native/search.c``): every channel's searches in one GIL-free
call.  The portable lane (``CC=false``, or no compiler) runs them in
lockstep on one dense ``(C, 1 + P·Nt)`` key array in *slab layout*: the
root is slot 0 and the children of a channel's ``i``-th selected node own
the fixed-stride slab of slots ``1 + i·Nt + w``, children that do not
exist being holes that hold ``+inf``.  Nothing is compacted and nothing
but the keys is stored per frontier node, so a round is a dozen array
operations however many channels ride it.  Both lanes are bit- and
FLOP-identical to calling :func:`find_promising_paths` once per channel;
see its docstring for why.  :func:`find_promising_paths` itself stays
the oracle and the serial backend's path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro import native
from repro.errors import ConfigurationError, DimensionError
from repro.flexcore.probability import LevelErrorModel
from repro.utils.flops import NULL_COUNTER, FlopCounter


@dataclass
class PreprocessingResult:
    """Output of the pre-processing tree search.

    Attributes
    ----------
    position_vectors:
        ``(P, Nt)`` int array, 1-based ranks, ordered by decreasing
        probability (expansion order).
    probabilities:
        Matching ``Pc`` values.
    expanded_nodes:
        Tree nodes expanded (= ``P``).
    real_multiplications:
        Probability-update multiplications performed — the Table 2 metric.
    candidate_peak:
        Largest frontier size reached (paper's ``|L|`` before trimming).
    stopped_early:
        True if the cumulative-probability stopping criterion fired.
    """

    position_vectors: np.ndarray
    probabilities: np.ndarray
    expanded_nodes: int
    real_multiplications: int
    candidate_peak: int
    stopped_early: bool

    @property
    def cumulative_probability(self) -> float:
        """Total probability mass captured by the selected paths."""
        return float(self.probabilities.sum())


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


def find_promising_paths_block(
    models,
    num_paths: int,
    max_rank: int,
    stop_threshold=None,
    batch_size: int = 1,
    counter: FlopCounter = NULL_COUNTER,
) -> list[PreprocessingResult]:
    """``C`` best-first searches in one call — the batched cold path.

    Parameters
    ----------
    models:
        A sequence of :class:`~repro.flexcore.probability.LevelErrorModel`
        (one per channel) or a stacked ``(C, Nt)`` ``Pe`` array, every
        entry in ``[0, 1]`` as for :func:`find_promising_paths`.
    num_paths, max_rank, batch_size:
        As :func:`find_promising_paths`; shared by every channel.
    stop_threshold:
        ``None``, a scalar shared by all channels, or a length-``C``
        sequence of per-channel thresholds (``nan`` entries disable the
        criterion for that channel).

    Returns one :class:`PreprocessingResult` per channel, **bit- and
    FLOP-identical** to ``[find_promising_paths(m, ...) for m in models]``
    (same expansion order, tie-break serials, ``real_multiplications``
    and ``candidate_peak``), each owning its arrays.

    **Native lane.**  When this process's lane is native
    (:func:`repro.native.kernel`), ``search.c`` runs the heap of
    :func:`find_promising_paths` for every channel in one call.  Its
    entries are ``(-Pc, slot)``, the slot being the slab's below, so a
    position row is built only when its node is popped.

    **Slab layout.**  On the portable lane the frontier is one row of
    ``keys`` (``-Pc``, so the best node is the minimum): slot 0 is the root and
    the ``w``-th child of the channel's ``i``-th selected node lives at
    slot ``1 + i·Nt + w``, written when that node is popped as one
    ``where(valid, popped_key * Pe, +inf)`` slab (``popped_key * Pe`` is
    bit-equal to the heap's ``-((-popped_key) * Pe)``).

    * *Holes are safe.*  Children ruled out by the dedup rule, by
      ``rank == max_rank`` or because their channel sits the pop out
      hold ``+inf``, as does every consumed node; real keys are ``<= 0``
      and a channel only pops while it has live nodes, so a hole never
      pops.
    * *Slot order is serial order.*  The serial search is
      round-structured already — each round pops the ``round_size``
      smallest ``(-Pc, serial)`` keys *before* pushing any child, and
      children get serials in (popped-node, level) order.  Selection
      indices grow in exactly that order and slabs are fixed-stride, so
      a first-occurrence ``argmin`` (one pop per round) or a stable
      ``argsort`` over the written slots reproduces the heap's pop
      sequence, ties included.
    * *What is implicit.*  A slot's last-incremented level is ``(slot -
      1) mod Nt`` and its parent is selection ``(slot - 1) div Nt``, so
      position vectors exist for *selected* nodes only, each built at
      pop time as its parent's row plus one unit step.  Floor division
      sends the root (slot 0) to level ``Nt - 1`` and parent ``-1``: the
      last row of ``selected`` holds ``[1, ..., 1, 0]`` so the root needs
      no special case.  Frontier size is ``1 + pushed - selected``.

    With one pop per round and no stopping threshold (every preset)
    all channels select their ``r``-th path in round ``r`` and a round
    needs no masking at all.  Thresholds and ``batch_size > 1`` ride the
    same layout one pop at a time: channels stop independently (path
    count reached, frontier exhausted, threshold crossed) and from then
    on write a scratch row and an all-hole scratch slab; the cumulative
    mass is summed pop by pop so threshold crossings stay float-exact.

    The transient footprint is the ``C·(1 + (P + 1)·Nt)`` float64 keys
    plus as many int64 position entries — about 15 MB each for 1200
    subcarriers x 128 paths x 12 streams.
    """
    if num_paths <= 0:
        raise ConfigurationError("num_paths must be positive")
    if max_rank <= 0:
        raise ConfigurationError("max_rank must be positive")
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    if isinstance(models, np.ndarray):
        pe_block = np.asarray(models, dtype=np.float64)
    else:
        models = list(models)
        if not models:
            return []
        pe_block = np.stack(
            [np.asarray(model.pe, dtype=np.float64) for model in models]
        )
    if pe_block.ndim != 2:
        raise DimensionError(
            f"find_promising_paths_block wants (C, Nt) error "
            f"probabilities, got {pe_block.shape}"
        )
    _check_pe(pe_block)
    num_channels, num_levels = pe_block.shape
    if num_channels == 0:
        return []
    if num_paths > max_rank**num_levels:
        num_paths = int(max_rank**num_levels)
    thresholds = _as_thresholds(stop_threshold, num_channels)
    kernel = native.kernel()
    search = _slab if kernel is None else kernel.tree_search
    selected, probabilities, tally = search(
        np.ascontiguousarray(pe_block), num_paths, max_rank, batch_size, thresholds
    )
    counter.add_real_mults(
        num_channels * (num_levels - 1) + int(tally[:, 1].sum())
    )
    return [
        PreprocessingResult(
            position_vectors=selected[c, :n].copy(),
            probabilities=probabilities[c, :n].copy(),
            expanded_nodes=n,
            real_multiplications=num_levels - 1 + pushed,
            candidate_peak=peak,
            stopped_early=bool(stopped),
        )
        for c, (n, pushed, peak, stopped) in enumerate(tally.tolist())
    ]


def _check_pe(pe: np.ndarray) -> None:
    """Refuse a ``Pe`` that is NaN, infinite or outside ``[0, 1]``: each
    lane would order its search differently, and ``search.c``'s compare
    takes every key to be ``<= 0``."""
    if not ((pe >= 0.0) & (pe <= 1.0)).all():
        raise ConfigurationError("error probabilities must lie in [0, 1]")


def _slab(pe_block, num_paths, max_rank, batch_size, thresholds) -> tuple:
    """The portable lane of :func:`find_promising_paths_block`: the
    lockstep search in slab layout.  Returns what the native lane's
    ``tree_search`` does: position rows and probabilities, valid up to
    each channel's count, and the ``(C, 4)`` tally of paths selected,
    children pushed, peak frontier and stopped early."""
    num_channels, num_levels = pe_block.shape
    # Row / slab ``num_paths`` is the scratch target of channels sitting
    # a pop out; row -1 of ``selected`` is the root's virtual parent.
    keys = np.full((num_channels, 1 + (num_paths + 1) * num_levels), np.inf)
    keys[:, 0] = -np.prod(1.0 - pe_block, axis=1)
    selected = np.ones((num_channels, num_paths + 2, num_levels), dtype=np.int64)
    selected[:, -1, -1] = 0
    neg_probs = np.zeros((num_channels, num_paths + 1))
    count = np.zeros(num_channels, dtype=np.int64)  # paths selected
    pushed = np.zeros(num_channels, dtype=np.int64)  # children created
    peak = np.ones(num_channels, dtype=np.int64)
    stopped_early = np.zeros(num_channels, dtype=bool)
    chan = np.arange(num_channels)
    levels = np.arange(num_levels)
    unit_step = np.eye(num_levels, dtype=np.int64)
    dedup = np.tri(num_levels, dtype=bool)  # row w: levels <= w

    def expand(slot, key, active=None):
        """The popped nodes' position rows, their children's slab of
        keys, and how many of those children exist."""
        slot = slot - 1
        last_w = slot % num_levels
        node = selected[chan, slot // num_levels] + unit_step[last_w]
        valid = dedup[last_w] & (node < max_rank)
        if active is not None:
            valid &= active[:, None]
        slab = np.where(valid, key[:, None] * pe_block, np.inf)
        return node, slab, valid.sum(axis=1)

    if thresholds is None and batch_size == 1:
        for r in range(num_paths):
            lo = 1 + r * num_levels
            slot = np.argmin(keys[:, :lo], axis=1)
            key = keys[chan, slot]
            keys[chan, slot] = np.inf
            node, slab, children = expand(slot, key)
            selected[:, r] = node
            neg_probs[:, r] = key
            keys[:, lo : lo + num_levels] = slab
            pushed += children
            np.maximum(peak, pushed - r, out=peak)
        count[:] = num_paths
    else:
        cumulative = np.zeros(num_channels)
        while True:
            round_size = np.minimum(
                np.minimum(batch_size, num_paths - count), 1 + pushed - count
            )
            round_size[stopped_early] = 0
            width = int(round_size.max())
            if width == 0:
                break
            # Every pop of the round is chosen before any child is
            # written, like the heap's batch of heappops.
            written = keys[:, : 1 + int(count.max()) * num_levels]
            if width == 1:
                slots = np.argmin(written, axis=1)[:, None]
            else:
                slots = np.argsort(written, axis=1, kind="stable")[:, :width]
            for b in range(width):
                active = b < round_size
                slot = slots[:, b]
                key = keys[chan, slot]
                keys[chan, slot] = np.where(active, np.inf, key)
                node, slab, children = expand(slot, key, active)
                index = np.where(active, count, num_paths)
                selected[chan, index] = node
                neg_probs[chan, index] = key
                keys[
                    chan[:, None], 1 + index[:, None] * num_levels + levels
                ] = slab
                pushed += children
                count += active
                cumulative = np.where(active, cumulative - key, cumulative)
            np.maximum(peak, 1 + pushed - count, out=peak)
            # Checked once per round like the serial loop, so a channel
            # crossing its threshold on its final round still reports
            # ``stopped_early``.
            if thresholds is not None:
                stopped_early |= (round_size > 0) & (cumulative >= thresholds)
    tally = np.stack([count, pushed, peak, stopped_early], axis=1)
    return selected, -neg_probs, tally


def _as_thresholds(stop_threshold, num_channels: int) -> "np.ndarray | None":
    """Normalise the stopping criterion to ``None`` or a ``(C,)`` array
    in which a disabled (``nan``) entry is ``+inf``: never reached."""
    if stop_threshold is None:
        return None
    thresholds = np.asarray(stop_threshold, dtype=np.float64)
    if thresholds.ndim == 0:
        thresholds = np.full(num_channels, float(thresholds))
    if thresholds.shape != (num_channels,):
        raise DimensionError(
            f"stop_threshold must be scalar or length {num_channels}, got "
            f"shape {thresholds.shape}"
        )
    return np.where(np.isnan(thresholds), np.inf, thresholds)


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
