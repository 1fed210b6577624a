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

:func:`find_promising_paths_block` runs ``C`` searches — one per channel
of a coherence block — in one call on the walk's lane (:mod:`repro.native`):
this heap in C (``search.c``), or a lockstep numpy search in *slab layout*
(``CC=false``), both bit- and FLOP-identical to the scalar heap the tests
keep as their oracle.

What pre-processing leaves for the walk is one :class:`PreparedBlock` per
prepared coherence block: its QR and search results and active path
counts, stacked, and the walk plans derived from them.  a-FlexCore's
rule (:func:`covering_prefix`) reads its ``Pc`` rows there: per channel in
the a-FlexCore detector, per cell in the SNR-aware budget policy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import accumulate

import numpy as np

from repro import native
from repro.errors import ConfigurationError, DimensionError
from repro.mimo.qr import QrBlock
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


@dataclass(frozen=True, eq=False)
class PathSearchBlock(Sequence):
    """The searches of ``C`` channels, stacked.

    ``position_vectors`` ``(C, P, Nt)`` and ``probabilities`` ``(C, P)``
    are valid up to each channel's ``expanded_nodes``; the other fields
    are ``(C,)`` columns of :class:`PreprocessingResult`'s scalars.  Row
    ``c`` is channel ``c``'s result, its arrays views of the block's.
    """

    position_vectors: np.ndarray
    probabilities: np.ndarray
    expanded_nodes: np.ndarray
    real_multiplications: np.ndarray
    candidate_peak: np.ndarray
    stopped_early: np.ndarray

    def __len__(self) -> int:
        return self.expanded_nodes.shape[0]

    def __getitem__(self, c) -> PreprocessingResult:
        count = int(self.expanded_nodes[c])
        return PreprocessingResult(
            position_vectors=self.position_vectors[c, :count],
            probabilities=self.probabilities[c, :count],
            expanded_nodes=count,
            real_multiplications=int(self.real_multiplications[c]),
            candidate_peak=int(self.candidate_peak[c]),
            stopped_early=bool(self.stopped_early[c]),
        )


def covering_prefix(probabilities: np.ndarray, counts, target: float):
    """a-FlexCore's rule (§3.3) on pop-order ``Pc`` rows valid up to ``counts``:
    the shortest prefix whose cumulative mass reaches ``target``, else all
    ``counts`` — where a search stopping at ``target`` stops (``cumsum``
    adds left to right, as its stopping test does)."""
    valid = np.arange(probabilities.shape[-1]) < np.asarray(counts)[..., None]
    cumulative = np.cumsum(np.where(valid, probabilities, 0.0), axis=-1)
    return np.minimum((cumulative < target).sum(axis=-1) + 1, counts)


class FlexCoreContext:
    """One channel of a :class:`PreparedBlock`: a row view, built only
    when a channel is asked for on its own (``FlexCoreDetector.prepare``,
    the per-subcarrier route).  ``active_paths`` starts at the block's
    count and is the one field a caller may lower (a path budget on a
    copy); everything else reads the block."""

    def __init__(self, block: "PreparedBlock", row: int):
        self.block, self.row = block, row
        self.active_paths = int(block.active[row])

    qr = property(lambda self: self.block.qr[self.row])
    diag = property(lambda self: self.block.diag[self.row])
    weights = property(lambda self: self.diag**2)
    preprocessing = property(lambda self: self.block.search[self.row])

    @property
    def position_vectors(self) -> np.ndarray:
        return self.block.search.position_vectors[self.row, : self.active_paths]


@dataclass(frozen=True, eq=False)
class PreparedBlock(Sequence):
    """What ``FlexCoreDetector.prepare_many`` makes of ``C`` channels, as
    stacked arrays: the QR, the path search (``None`` for FCSD, whose path
    set is the detector's), ``R``'s real diagonal ``(C, Nt)`` and each
    channel's active path count ``(C,)``.  Row ``c`` is channel ``c``'s
    :class:`FlexCoreContext`; rows are a :class:`BlockRows`.

    ``plans`` holds the walk plans resident calls derived from these
    arrays, one per module, path count and rows walked — for a warm
    block, one per equal-path group: a plan lives exactly as long as its
    block.
    """

    qr: QrBlock
    search: PathSearchBlock
    diag: np.ndarray
    active: np.ndarray
    plans: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return self.active.shape[0]

    def __getitem__(self, row: int) -> "FlexCoreContext":
        return FlexCoreContext(self, range(len(self))[row])

    def select(self, rows) -> "BlockRows":
        """These ``rows`` of the block, in this order, as a sequence."""
        return BlockRows(self, np.asarray(rows, dtype=np.intp))

    @staticmethod
    def gather(pairs) -> "PreparedBlock":
        """One new block of the ``(block, row)`` ``pairs``' rows, in order,
        from any number of blocks of one detector."""
        blocks = list({id(block): block for block, _ in pairs}.values())
        start = dict(zip(map(id, blocks), accumulate(map(len, blocks), initial=0)))
        index = np.array([start[id(block)] + row for block, row in pairs], dtype=np.intp)
        return _join(
            blocks,
            lambda arrays: (arrays[0] if len(arrays) == 1 else np.concatenate(arrays))[index],
        )


@dataclass(frozen=True, eq=False)
class BlockRows(Sequence):
    """``rows`` of one :class:`PreparedBlock`, in any order and with
    repeats — a streaming flush stacking several slots of a cell — read
    from the block as they are, its plans included."""

    block: PreparedBlock
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, row: int) -> "FlexCoreContext":
        return self.block[int(self.rows[row])]


def _join(parts, take):
    """A stacked result like ``parts[0]`` whose every array is ``take`` of
    that array in each of ``parts`` (nested stacked results alike; a
    field that is ``None``, as an FCSD block's ``search``, stays so)."""
    values = {
        item.name: [getattr(part, item.name) for part in parts]
        for item in fields(parts[0])
        if item.init
    }
    return replace(
        parts[0],
        **{
            name: _join(arrays, take) if is_dataclass(arrays[0]) else take(arrays)
            for name, arrays in values.items()
            if arrays[0] is not None
        },
    )


def leading_path_probabilities(prepared) -> "np.ndarray | None":
    """The pop-order ``Pc`` of a prepared sequence's first channel, its valid
    prefix as a view of the block; ``None`` for no sequence or one without
    a §3.1.1 search (FCSD's, SIC's, a linear detector's)."""
    block, rows = getattr(prepared, "block", prepared), getattr(prepared, "rows", (0,))
    search = getattr(block, "search", None)
    if search is None:
        return None
    return search.probabilities[rows[0], : search.expanded_nodes[rows[0]]]


def find_promising_paths_block(
    models,
    num_paths: int,
    max_rank: int,
    stop_threshold=None,
    batch_size: int = 1,
    counter: FlopCounter = NULL_COUNTER,
) -> PathSearchBlock:
    """``C`` best-first searches in one call — the batched cold path.

    Parameters
    ----------
    models:
        An :class:`~repro.flexcore.probability.ErrorModelBlock`, a
        sequence of :class:`~repro.flexcore.probability.LevelErrorModel`
        (one per channel) or a stacked ``(C, Nt)`` ``Pe`` array, every
        entry in ``[0, 1]`` (anything else, NaN included, is a
        ``ConfigurationError``).
    num_paths, max_rank, batch_size:
        ``N_PE``, the largest rank per level (``|Q|``) and the frontier
        nodes expanded per round; shared by every channel.
    stop_threshold:
        ``None``, a scalar shared by all channels, or a length-``C``
        sequence of per-channel cumulative-``Pc`` thresholds (``nan``
        entries disable the criterion for that channel).

    Returns one :class:`PathSearchBlock` whose rows are **bit- and
    FLOP-identical** to the scalar heap run once per channel (same
    expansion order, tie-break serials, ``real_multiplications`` and
    ``candidate_peak``).

    **Native lane.**  When this process's lane is native
    (:func:`repro.native.kernel`), ``search.c`` runs the heap for every
    channel in one call, its entries ``(-Pc, slot)`` with the slab's slot
    below, so a position row is built only when its node is popped.

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
    if min(num_paths, max_rank, batch_size) <= 0:
        raise ConfigurationError("num_paths, max_rank and batch_size must be positive")
    models = getattr(models, "pe", models)  # an ErrorModelBlock's stack
    if not isinstance(models, np.ndarray):
        models = [model.pe for model in models] or np.empty((0, 1))
    pe_block = np.asarray(models, dtype=np.float64)
    if pe_block.ndim != 2:
        raise DimensionError(
            f"find_promising_paths_block wants (C, Nt) error "
            f"probabilities, got {pe_block.shape}"
        )
    _check_pe(pe_block)
    num_channels, num_levels = pe_block.shape
    num_paths = min(num_paths, max_rank**num_levels)
    thresholds = _as_thresholds(stop_threshold, num_channels)
    kernel = native.kernel()
    search = _slab if kernel is None or num_channels == 0 else kernel.tree_search
    selected, probabilities, tally = search(
        np.ascontiguousarray(pe_block), num_paths, max_rank, batch_size, thresholds
    )
    pushed = tally[:, 1]
    counter.add_real_mults(num_channels * (num_levels - 1) + int(pushed.sum()))
    return PathSearchBlock(
        position_vectors=selected[:, :num_paths],
        probabilities=probabilities[:, :num_paths],
        expanded_nodes=tally[:, 0],
        real_multiplications=num_levels - 1 + pushed,
        candidate_peak=tally[:, 2],
        stopped_early=tally[:, 3].astype(bool),
    )


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
            width = int(round_size.max(initial=0))
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
