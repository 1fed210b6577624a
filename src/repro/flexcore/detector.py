"""FlexCore's parallel detection engine (§3.2, Fig. 2): a plan and a core.

Each position vector selected by pre-processing maps to one processing
element, which walks its tree path from the top level down: compute the
effective received point (Eq. 5), pick the ``p(l)``-th closest symbol via
the triangle LUT, accumulate the partial Euclidean distance (Eq. 1).  No
processing element communicates with any other until the final minimum —
the "nearly embarrassingly parallel" property, and the paper's §5.2
mapping of thousands of independent (subcarrier x path) elements onto
wide parallel hardware.

Every path through this module — :meth:`FlexCoreDetector.detect_prepared`
(one channel, a group of one), :meth:`~FlexCoreDetector.
detect_block_prepared` (a coherence block grouped by path count), and
FCSD and SIC (:mod:`repro.detectors.fcsd`), whose plans hold a path set
that ignores the channel and mark its top ``L`` levels *absolute* (there
a path takes the symbol its plan holds, not a LUT rank, and is never
deactivated: one per-level test in each lane; FlexCore's ``L`` is 0) —
runs the same two pieces, so the per-channel loop and the stacked kernel
are bit-identical by construction — *within a lane*.  The soft detector's
entry points are the same per-channel call and the same block loop
(:meth:`~FlexCoreDetector._detect_block`) given a ``noise_var``, and one
group dispatch (:meth:`~FlexCoreDetector._detect_group`) picks the lane
for both.  The core has two: the **portable** level loop below, numpy
passes — no compiler, the exact-ordering ablation, the soft candidate
list, the tests' oracle — and the **native** ``detect_group``
(:meth:`~FlexCoreDetector._decide`, taken whenever
:func:`repro.native.kernel` is not ``None``): the same arithmetic in one
GIL-free call per equal-path group that walks each frame into scratch
and reduces it right there, so that, as from the paper's processing
elements, only decisions leave the kernel.  A group
with enough walk to share is cut along ``G`` into runs, one call each,
spread over the process's CPUs (:func:`repro.native.fan_out`) — sound
only while nothing couples one subcarrier's walk to another's, in either
lane: keep it that way.  Across lanes counts and FLOP charges are
equal, distances differ by the summation order of the interference
product (BLAS in one, increasing ``j`` in the other: a few ulp), and so
decisions only where two paths' distances are that close.

**The prepared block** (:class:`~repro.flexcore.preprocessing.
PreparedBlock`) is what :meth:`~FlexCoreDetector.prepare_many` makes of a
coherence block: its channels' QR, path search, diagonal and active path
counts, stacked, never split into per-channel objects on the way to the
walk.  A ``FlexCoreContext`` is one row of it, built only when asked for.

**The plan** (:class:`_StackedContexts`) is everything about an
equal-path group of ``G`` rows of a block that no received frame
changes, derived from the block's arrays once and — when a
:class:`~repro.runtime.residency.ResidentContextStore` is in the call —
kept on the block, device-side.  Hoisted into it: each path's canonical triangle
offsets per level (a LUT gather on the position vectors, stored as small
integers with the path axis last so a budget clamp is a slice); the
interference rows of ``R`` divided by the diagonal and embedded as real
``[[Re, -Im], [Im, Re]]`` blocks; ``1 / (diag * scale)`` and ``diag**2 *
scale**2``, which move the walk into the constellation's odd-integer
grid units, where the LUT arithmetic lives.

**The core** (:meth:`FlexCoreDetector._walk`) is the only level loop.
It keeps real and imaginary planes apart and stores symbols level-major,
``(G, F, 2 Nt, P)``, so the levels already decided are one contiguous
slab and the interference is one ``(2 x 2k) @ (2k x P)`` product per
(subcarrier, frame).  That shape is deliberate: it does not depend on
``G`` or on the tile, so BLAS sees the same call whether a channel is
walked alone or stacked, whole or tiled — a flat product over ``F * P``
columns is faster to write and *not* bit-stable.  The triangle's
reflections and diagonal swap are arithmetic on the plan's offsets, and
symbol indices are looked up after the walk: for the arg-min path only
on the hard path, for every candidate in one pass on the soft path.

Like the paper's processing element, the core holds a fixed amount of
state and asks for no memory while it walks.  Everything with a path
axis — ``symbols``, the distances, the dead mask and the level's
temporaries (:func:`walk_layout`; the fused call has ``(6 + 6 Nt) P``
doubles of scratch instead, and nothing else) — is a view of a
:class:`WalkWorkspace`, and every operation of the level body writes
into it through ``out=``.  The workspace belongs to the ``store`` a
stacked entry point is handed (one per store, kept until
``store.clear()``), so a warm call allocates nothing and faults no page;
without a store the call makes a private one, which is what keeps
:meth:`~FlexCoreDetector.detect_prepared` and a bare ``_walk`` re-entrant
and their results the caller's own.  Nothing a public entry point
returns aliases the workspace.  Inside the loop lengths are in *half*
grid units — halving is exact, the detection square's centre becomes
``clip(rint(z))``, and the clip writes each pick straight into its
``symbols`` rows — so ``symbols`` comes back halved and
:meth:`~FlexCoreDetector._cells` absorbs the factor; the plan and the
distances stay in grid units.  Off the fused lane a block is walked in
``(G, F)`` tiles (:func:`tile_shape`) sized so that one tile's workspace
fits the L2 cache: subcarriers are cut first, frames only when one
subcarrier's do not fit, and the plan is sliced along ``G`` as a budget
clamp slices it along ``P``.

A processing element whose pick leaves the constellation is
*deactivated* (its distance becomes infinite), per §3.2: the pick is
clipped back onto the grid, and "the clip changed it" is the test.  A
dead element therefore keeps walking on valid symbols — its numbers are
meaningless but finite, and nothing reads them once its distance is
infinite.  Rank-1 picks never leave (the detection square is clamped
inside the constellation), so the all-ones path always survives and a
decision is always produced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro import native
from repro.detectors.base import DetectionResult, Detector
from repro.errors import ConfigurationError, DimensionError
from repro.flexcore.ordering import TriangleOrdering
from repro.flexcore.preprocessing import (
    BlockRows,
    FlexCoreContext,
    PathSearchBlock,
    PreparedBlock,
    find_promising_paths_block,
)
from repro.flexcore.probability import LevelErrorModel
from repro.mimo.qr import QrBlock, stacked_fcsd_sorted_qr, stacked_plain_qr, stacked_sorted_qr
from repro.mimo.system import MimoSystem
from repro.obs import SPAN_QR, SPAN_TREE_SEARCH, current_tracer
from repro.utils.flops import NULL_COUNTER, FlopCounter
from repro.utils.xp import resolve_array_module

#: Bound on the float64 values (eight bytes each) one tile of the walk
#: keeps live — sized for the L2 cache, not for RAM (the sweep is in
#: CHANGES.md, PR 18).  The walk has no coupling between subcarriers or
#: frames, so results are bit-identical for every value.
MAX_CHUNK_ELEMENTS = 1 << 18

_ITEM_BYTES = {"float64": 8, "int64": 8, "uint8": 1, "bool_": 1}

#: The rows one block's plans may cover, in multiples of the block's: a
#: warm block's groups cover it once, a streaming cell's flush shapes
#: (the block, several slots of it stacked) a few times.  Past this the
#: block's table starts over rather than grow with every new shape.
PLAN_COVER = 8


def walk_layout(num_streams: int) -> tuple:
    """What the portable core holds per (subcarrier, frame, path)
    element, as ``(name, dtype, planes)`` rows: the list
    :meth:`WalkWorkspace.carve` turns into buffers and :func:`tile_shape`
    into a footprint."""
    return (
        ("symbols", "float64", 2 * num_streams),
        ("ped", "float64", 1),
        ("dead", "bool_", 2),
        ("z", "float64", 2),
        ("centre", "float64", 2),
        # Offset inside the detection square, then the unclipped pick.
        ("step", "float64", 2),
        ("sign", "float64", 2),
        # Diagonal-swap flag, then the level's distance.
        ("swap", "float64", 1),
        ("left", "bool_", 2),
    )


def tile_shape(group: int, frames: int, paths: int, layout) -> "tuple[int, int]":
    """Subcarriers and frames of one tile of a ``(G, F, P)`` walk whose
    ``layout`` fits :data:`MAX_CHUNK_ELEMENTS`: whole frames of as many
    subcarriers as fit, a run of one subcarrier's frames only when all
    of them do not, and either way the shortest run that needs no more
    tiles than the longest would."""

    def even(total, most):
        return -(-total // -(-total // min(most, total)))

    per_element = sum(_ITEM_BYTES[dtype] * planes for _, dtype, planes in layout)
    elements = MAX_CHUNK_ELEMENTS * 8 // per_element
    group, frames, paths = max(group, 1), max(frames, 1), max(paths, 1)
    if elements >= frames * paths:
        return even(group, elements // (frames * paths)), frames
    return 1, even(frames, max(1, elements // paths))


class WalkWorkspace:
    """Grow-only scratch memory of the walk.

    Each named buffer is flat, grows to the largest size ever asked of
    it (a tile bounds that) and is handed out as a view, so a warm walk
    allocates nothing.  Whoever holds the workspace owns the views: the
    next :meth:`carve` of the same names reuses their memory.
    """

    def __init__(self):
        self._flat: dict = {}

    def carve(self, layout, group: int, frames: int, paths: int) -> list:
        """A ``(group, frames, planes, paths)`` view per ``layout`` row."""
        views = []
        for name, dtype, planes in layout:
            size = group * frames * planes * paths
            flat = self._flat.get(name)
            if flat is None or flat.shape[0] < size:
                flat = self._flat[name] = np.empty((size,), dtype=getattr(np, dtype))
            views.append(flat[:size].reshape((group, frames, planes, paths)))
        return views


class FlexCoreDetector(Detector):
    """The FlexCore detector.

    Parameters
    ----------
    system:
        MIMO system description.
    num_paths:
        ``N_PE``: processing elements available.  Any positive integer —
        the flexibility FCSD lacks.
    qr_method:
        ``"sorted"`` (Wübben, default), ``"fcsd"`` or ``"plain"``; §5.1
        evaluates both sorted variants and keeps the better.
    ordering:
        Optional pre-built :class:`TriangleOrdering` (shared across
        detectors to amortise the offline LUT).
    use_exact_ordering:
        Replace the LUT with exhaustive per-level sorting — the ablation
        quantifying what the approximation costs.
    stop_threshold:
        Optional pre-processing stopping criterion (cumulative ``Pc``).
    pe_formula:
        ``"corrected"`` (default) or ``"paper"`` — see
        :mod:`repro.flexcore.probability`.
    batch_expansion:
        Pre-processing parallel-expansion batch size.
    """

    name = "flexcore"

    def __init__(
        self,
        system: MimoSystem,
        num_paths: int,
        qr_method: str = "sorted",
        ordering: TriangleOrdering | None = None,
        use_exact_ordering: bool = False,
        stop_threshold: float | None = None,
        pe_formula: str = "corrected",
        batch_expansion: int = 1,
    ):
        super().__init__(system)
        if num_paths <= 0:
            raise ConfigurationError("num_paths must be positive")
        if qr_method not in ("sorted", "fcsd", "plain"):
            raise ConfigurationError(f"unknown qr_method {qr_method!r}")
        self.num_paths = int(num_paths)
        self.qr_method = qr_method
        self.use_exact_ordering = bool(use_exact_ordering)
        self.stop_threshold = stop_threshold
        self.pe_formula = pe_formula
        self.batch_expansion = int(batch_expansion)
        self.ordering = ordering or TriangleOrdering(system.constellation)

    # ------------------------------------------------------------------
    def prepare(
        self,
        channel: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> FlexCoreContext:
        """Row 0 of :meth:`prepare_many` on a one-channel block."""
        channel = self._check_channel(channel)
        return self.prepare_many(channel[None], noise_var, counter=counter)[0]

    def prepare_many(
        self,
        channels: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> PreparedBlock:
        """Prepare a ``(C, Nr, Nt)`` block with no per-channel Python.

        The QR of every channel runs in a single stacked call
        (:func:`~repro.mimo.qr.stacked_sorted_qr` and friends), the
        stacked R-diagonals feed one vectorised error-model evaluation,
        and the ``C`` best-first tree searches run in one call
        (:func:`~repro.flexcore.preprocessing.find_promising_paths_block`)
        — the batched cache-miss path of the runtime, end to end.  Each
        step hands the next its stacked arrays, and so does the result.
        """
        channels = np.asarray(channels)
        expected = (self.system.num_rx_antennas, self.system.num_streams)
        if channels.ndim != 3 or channels.shape[1:] != expected:
            raise DimensionError(
                f"{self.name}: prepare_many wants (C, Nr, Nt) = (C, "
                f"{expected[0]}, {expected[1]}) channels, got {channels.shape}"
            )
        qr = self._factor(channels, noise_var, counter)
        diag = np.diagonal(qr.r, axis1=1, axis2=2)
        search, active = self._search(diag, noise_var, counter)
        return PreparedBlock(qr=qr, search=search, diag=diag.real.copy(), active=active)

    def _factor(self, channels, noise_var, counter, fcsd_levels: int = 1) -> QrBlock:
        """The block's QR by ``qr_method``: ``"fcsd"`` orders for
        ``fcsd_levels`` fully expanded levels — one for FlexCore, ``L``
        for FCSD.  The ambient tracer (installed by
        ``DetectionService.detect``) is how this and the search report
        without threading a tracer through every prepare signature —
        cache-miss path only, so the lookup never taxes the warm path."""
        with current_tracer().span(SPAN_QR, method=self.qr_method, channels=channels.shape[0]):
            if self.qr_method == "sorted":
                return stacked_sorted_qr(channels, counter=counter)
            if self.qr_method == "fcsd":
                return stacked_fcsd_sorted_qr(channels, fcsd_levels, noise_var, counter=counter)
            return stacked_plain_qr(channels, counter=counter)

    def _search(self, diag, noise_var, counter) -> tuple:
        """The block's §3.1.1 searches and each channel's active path
        count."""
        models = LevelErrorModel.from_channels(
            diag, noise_var, self.system.constellation, formula=self.pe_formula
        )
        with current_tracer().span(
            SPAN_TREE_SEARCH, channels=diag.shape[0], path_budget=self.num_paths
        ):
            search = find_promising_paths_block(
                models, self.num_paths, self.system.constellation.order,
                self.stop_threshold, self.batch_expansion, counter,
            )  # fmt: skip
        return search, self._active_paths(search)

    def _active_paths(self, search: PathSearchBlock) -> np.ndarray:
        """``(C,)`` paths each channel walks: all it selected (a-FlexCore
        trims them)."""
        return search.expanded_nodes

    def _entry(self, paths: int, count, soft: bool) -> dict:
        """One subcarrier's metadata: its paths and its dead-path
        evaluations, or its clamped bits when ``soft``."""
        name = "clamped_bits" if soft else "deactivated_path_evaluations"
        return {"paths": paths, name: int(count)}

    # ------------------------------------------------------------------
    def detect_prepared(
        self,
        context: FlexCoreContext,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        return self._detect_row(context, received, counter)

    def _detect_row(self, context, received, counter, noise_var=None) -> DetectionResult:
        """One channel, a group of one: hard, or soft given ``noise_var``."""
        received = self._check_received(received)
        xp = resolve_array_module(None)
        indices, llrs, counts = self._detect_group(
            self._row_plan(context, xp), received[None], xp, counter, WalkWorkspace(), noise_var
        )
        return DetectionResult(
            indices=indices[0],
            metadata=self._entry(context.active_paths, counts[0], noise_var is not None),
            llrs=None if llrs is None else llrs[0],
        )

    # ------------------------------------------------------------------
    # Stacked tensor-walk kernel: a whole coherence block in one pass
    # ------------------------------------------------------------------
    def detect_block_prepared(
        self,
        contexts,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
        xp=None,
        store=None,
        max_paths: "int | None" = None,
    ) -> "tuple[np.ndarray, list[dict]]":
        """Detect a ``(S, F, Nr)`` block over ``S`` prepared channels.

        ``contexts`` is a :class:`PreparedBlock` or any sequence of its
        :class:`FlexCoreContext` rows, in any order and with repeats (a
        streaming flush); rows of several blocks, or with a lowered
        ``active_paths``, are gathered into a block of their own.
        Subcarriers sharing an active path count are stacked into one
        ``(G, F, P)`` element tensor and all their tree levels walk in a
        handful of array operations — the §5.2 "thousands of independent
        processing elements" mapping.  ``xp`` is where arrays cross
        between host and device (numpy default; a
        :class:`~repro.utils.xp.CountingArrayModule` meters the
        crossings).  The result is bit-identical to calling
        :meth:`detect_prepared` per subcarrier.

        ``store`` is an optional
        :class:`~repro.runtime.residency.ResidentContextStore`: with it
        each group's walk plan is derived once and kept on the block, so
        a warm call uploads only ``received``.  ``max_paths`` applies the
        control plane's path budget by *slicing* the plan — a view,
        never a re-upload, and never a change to the block.

        Returns ``(indices, metadata)``: ``(S, F, Nt)`` hard decisions in
        original stream order plus one metadata dict per subcarrier,
        matching what the per-subcarrier loop would produce.  ``indices``
        comes home in a single ``to_numpy``.
        """
        indices, _, metadata = self._detect_block(contexts, received, counter, xp, store, max_paths)
        return indices, metadata

    def _detect_block(self, contexts, received, counter, xp, store, max_paths, noise_var=None):
        """The block loop of both block entries: ``(indices, llrs,
        metadata)``, ``llrs`` ``(S, F, Nt * bits)`` given a ``noise_var``,
        else ``None``."""
        xp = resolve_array_module(xp)
        received = self._check_block_received(contexts, received)
        num_subcarriers, num_frames, _ = received.shape
        num_streams = self.system.num_streams
        width = num_streams * self.system.constellation.bits_per_symbol
        indices_dev = np.zeros((num_subcarriers, num_frames, num_streams), dtype=np.int64)
        llrs_dev = None if noise_var is None else np.zeros((num_subcarriers, num_frames, width))
        metadata: list = [None] * num_subcarriers
        scratch = self._scratch(store)
        # One upload per call: groups slice it device-side.
        received = xp.asarray(received)
        for members, paths, plan in self._plans(contexts, xp, store, max_paths):
            indices_dev[members], llrs, counts = self._detect_group(
                plan, received[members], xp, counter, scratch, noise_var
            )
            if llrs is not None:
                llrs_dev[members] = llrs
            for j, sc in enumerate(members):
                metadata[sc] = self._entry(paths, counts[j], noise_var is not None)
        indices = np.asarray(xp.to_numpy(indices_dev), dtype=np.int64)
        if llrs_dev is not None:
            llrs_dev = np.asarray(xp.to_numpy(llrs_dev), dtype=np.float64)
        return indices, llrs_dev, metadata

    def _check_block_received(self, contexts, received) -> np.ndarray:
        received = np.asarray(received)
        if received.ndim != 3:
            raise DimensionError(
                f"{self.name}: block received must be (S, F, Nr), got "
                f"{received.shape}"
            )
        if received.shape[0] != len(contexts):
            raise DimensionError(
                f"{self.name}: {len(contexts)} contexts for "
                f"{received.shape[0]} received subcarriers"
            )
        if received.shape[2] != self.system.num_rx_antennas:
            raise DimensionError(
                f"{self.name}: block received has {received.shape[2]} "
                f"antennas, system expects {self.system.num_rx_antennas}"
            )
        return received

    @staticmethod
    def _selection(contexts) -> "tuple[PreparedBlock, np.ndarray]":
        """``contexts`` as a block and the rows of it they are: a block's
        own rows or a :class:`BlockRows`' as they are, any other sequence
        of rows gathered into a block of their own, each at its own
        ``active_paths``."""
        if isinstance(contexts, BlockRows):
            return contexts.block, contexts.rows
        if not isinstance(contexts, PreparedBlock):
            contexts = list(contexts)
            active = np.array([context.active_paths for context in contexts], dtype=np.int64)
            contexts = PreparedBlock.gather([(context.block, context.row) for context in contexts])
            contexts = replace(contexts, active=active)
        return contexts, np.arange(len(contexts))

    @staticmethod
    def _group_by_paths(
        block: PreparedBlock, rows: np.ndarray, max_paths: "int | None"
    ) -> "dict[tuple[int, int], np.ndarray]":
        """Indices into ``rows`` grouped by ``(prepared, effective)`` paths.

        Rows in a group stack into one rectangular ``(G, F, P)`` walk;
        groups differ only when pre-processing stopped early or
        a-FlexCore trimmed the active set.  ``effective`` is the prepared
        count clamped to the ``max_paths`` budget — a pure function of
        ``prepared`` within one call, so group membership (and therefore
        each group's plan) is stable while an AIMD governor sweeps the
        budget up and down."""
        active = block.active[rows]
        budget = np.inf if max_paths is None else max_paths
        return {
            (int(prepared), int(min(prepared, budget))): np.flatnonzero(active == prepared)
            for prepared in np.unique(active)
        }

    def _plans(self, contexts, xp, store, max_paths):
        """Yield ``(members, paths, plan)`` for each equal-path group of
        ``contexts``: its subcarriers, its budgeted path count and its
        plan clamped to it."""
        block, rows = self._selection(contexts)
        for (prepared, paths), members in self._group_by_paths(block, rows, max_paths).items():
            plan = self._group_plan(block, rows[members], prepared, xp, store)
            yield members, paths, plan.clamp(paths)

    @staticmethod
    def _scratch(store) -> WalkWorkspace:
        """The store's workspace; a private one without a store."""
        if store is None:
            return WalkWorkspace()
        return store.scratch(WalkWorkspace)

    def _detect_group(
        self, plan, received, xp, counter: FlopCounter, scratch: WalkWorkspace, noise_var=None
    ) -> tuple:
        """Detect one equal-path-count group over its walk plan: the one
        dispatch between the fused lane and the portable tiles.

        ``received`` ``(G, F, Nr)`` is already on the module.  Returns
        device-side decisions ``(G, F, Nt)``, ``None`` or — given a
        ``noise_var`` — ``(G, F, Nt * bits)`` LLRs, and host
        per-subcarrier dead-path or clamped-bit counts, downloaded once.
        """
        planes = plan.grid_planes(np.matmul(received, plan.q_conj))
        # The soft candidate walk ignores the exact-ordering ablation.
        use_exact = self.use_exact_ordering and noise_var is None
        if not use_exact and native.kernel() is not None:
            llr_clip = 0.0 if noise_var is None else self.llr_clip
            indices, llrs, counts = self._decide(
                plan, planes, xp, counter, scratch, noise_var, llr_clip
            )
        else:
            group, frames, num_streams, _ = planes.shape
            bits = self.system.constellation.bits_per_symbol
            indices = np.empty((group, frames, num_streams), dtype=np.int64)
            llrs = None if noise_var is None else np.empty((group, frames, num_streams * bits))
            counts = np.zeros((group,), dtype=np.int64)
            for rows, cols, symbols, ped, dead in self._walk_tiles(
                plan, planes, xp, counter, use_exact, scratch, self._tile_layout(noise_var)
            ):
                indices[rows, cols], soft, flagged = self._reduce_tile(
                    symbols, ped, dead, xp, scratch, noise_var
                )
                if llrs is not None:
                    llrs[rows, cols] = soft
                counts[rows] += np.count_nonzero(flagged, axis=(1, 2))
            indices = plan.restore_order(indices)
            if llrs is not None:
                counter.add_comparisons(llrs.size * plan.paths)
                by_stream = llrs.reshape((group, frames, num_streams, bits))
                llrs = plan.restore_order(by_stream).reshape(llrs.shape)
        return indices, llrs, np.asarray(xp.to_numpy(counts), dtype=np.int64)

    def _tile_layout(self, noise_var) -> tuple:
        """What a portable tile holds on top of :func:`walk_layout`:
        nothing for the arg-min (the soft detector adds its list)."""
        return ()

    def _reduce_tile(self, symbols, ped, dead, xp, scratch, noise_var) -> tuple:
        """One portable tile's ``(G, F, Nt)`` decisions in detection
        order, its LLRs (``None``) and the ``(G, F, ...)`` mask whose
        set entries a subcarrier counts: the arg-min path and the dead
        paths (the soft detector reduces a candidate list instead)."""
        return self._symbol_indices(self._winner(symbols, ped), xp), None, dead

    def _decide(
        self, plan, planes, xp, counter, scratch, noise_var=None, llr_clip=0.0
    ) -> tuple:
        """The fused lane: the native ``detect_group`` walks the group and reduces
        each frame where it walked it.  Device-side ``(G, F, Nt)`` indices
        in original stream order, ``None`` and per-subcarrier dead-path
        counts — or, given a ``noise_var``, ``(G, F, Nt * bits)`` LLRs and
        clamped-bit counts.  No tile, no candidate tensor: ``scratch``
        lends ``(6 + 6 Nt) P`` doubles per run.  Charges what the tile
        loop would.

        A group carrying :data:`repro.native.RUN_FLOPS` of walk per run is
        cut along ``G`` into up to :func:`repro.native.pes` contiguous
        runs, one call each, fanned out over the PE pool: every run reads
        its own subcarriers' plan and writes its own rows, so the result
        is the one call's to the bit."""
        group, frames, num_streams, _ = planes.shape
        constellation = self.system.constellation
        side, width = constellation.side, num_streams * constellation.bits_per_symbol
        walk_flops = self._charge(counter, group * frames * plan.paths, num_streams)
        indices = np.empty((group, frames, num_streams), dtype=np.int64)
        counts = np.empty((group,), dtype=np.int64)
        llrs = None
        if noise_var is not None:
            llrs = np.empty((group, frames, width), dtype=np.float64)
            counter.add_comparisons(group * frames * plan.paths * width)
        runs = max(1, min(native.pes(), group, walk_flops // native.RUN_FLOPS))
        (work,) = scratch.carve(
            (("kernel", "float64", 6 + 6 * num_streams),), runs, 1, plan.paths
        )
        half = planes * 0.5
        table = constellation.device_constant(xp, constellation.grid_index_table)
        detect_group = native.kernel().detect_group

        def run(k):
            rows = slice(group * k // runs, group * (k + 1) // runs)
            part = plan if runs == 1 else plan.subcarriers(rows)
            detect_group(
                half[rows], part.rows, part.weights, part.offsets, part.swap_delta,
                0.5 * max(side - 2, 0), 0.5 * (side - 1), part.inverse_permutation,
                table, 0.0 if noise_var is None else noise_var, llr_clip,
                indices[rows], None if llrs is None else llrs[rows], counts[rows], work[k],
                part.absolute,
            )  # fmt: skip

        native.fan_out(run, runs)
        return indices, llrs, counts

    @staticmethod
    def _charge(counter: FlopCounter, elements: int, num_streams: int) -> int:
        """The walk of ``elements`` (subcarrier, frame, path) elements;
        returns the FLOPs charged."""
        complex_mults = elements * num_streams * (num_streams - 1) // 2
        counter.add_complex_mults(complex_mults)
        counter.add_real_mults(elements * num_streams * 5)
        return 6 * complex_mults + elements * num_streams * 5

    def _walk_tiles(
        self, plan, planes, xp, counter, use_exact: bool, scratch, extra=()
    ):
        """Yield ``(rows, cols, symbols, ped, dead)`` — two slices of a
        block's ``(G, F, Nt, 2)`` ``planes`` and :meth:`_walk`'s result
        on them — for each tile :func:`tile_shape` cuts the block into
        (the portable layout plus the caller's ``extra`` rows): where a
        block is walked off the fused lane, hard and soft detector alike.
        A tile's tensors live in ``scratch`` until the next tile is asked
        for; a block without frames has no tiles."""
        group, frames, num_streams, _ = planes.shape
        layout = walk_layout(num_streams) + extra
        tile_group, tile_frames = tile_shape(group, frames, plan.paths, layout)
        for first in range(0, group, tile_group):
            rows = slice(first, first + tile_group)
            part = plan if tile_group >= group else plan.subcarriers(rows)
            for start in range(0, frames, tile_frames):
                cols = slice(start, start + tile_frames)
                yield (rows, cols) + self._walk(
                    planes[rows, cols], part, xp, counter, use_exact, scratch
                )

    @staticmethod
    def _winner(values, ped):
        """``values`` ``(G, F, K, P)`` on each frame's arg-min path:
        ``(G, F, K)`` — one flat gather, row ``r`` of the ``(G F K, P)``
        matrix starting at ``r * P``."""
        group, frames, planes, paths = values.shape
        rows = np.arange(group * frames * planes) * paths
        return np.take(
            values,
            np.argmin(ped, axis=2)[:, :, None] + rows.reshape((group, frames, planes)),
            mode="clip",
        )

    def _cells(self, symbols, out=None):
        """Row-major cell, in the constellation's ``side x side``
        position table, of each walked point: axis 2 of ``symbols``
        interleaves ``u`` and ``v`` in half-grid units (the core's
        layout) and comes back half as long.  Integer-valued float64:
        ``(2u + side - 1) / 2 * side + (2v + side - 1) / 2``."""
        side = self.system.constellation.side
        cells = np.multiply(symbols[:, :, 0::2], float(side), out=out)
        cells += symbols[:, :, 1::2]
        cells += 0.5 * (side * side - 1)
        return cells

    def _symbol_indices(self, symbols, xp):
        """Symbol indices of walked points: the Gray map is the position
        table, read at :meth:`_cells`."""
        constellation = self.system.constellation
        table = constellation.device_constant(
            xp, constellation.grid_index_table
        )
        return table.reshape(-1)[self._cells(symbols).astype(np.int64)]

    def _walk(
        self,
        planes,
        plan: "_StackedContexts",
        xp,
        counter: FlopCounter,
        use_exact: bool,
        scratch: "WalkWorkspace | None" = None,
    ):
        """The portable level loop: walk ``(G, F, P)`` elements down the tree.

        ``planes`` is ``(G, F, Nt, 2)``: the rotated received block in
        grid units, real and imaginary parts apart.  Returns
        ``(symbols, ped, dead)``: the picked grid coordinates ``(G, F,
        2 Nt, P)`` in *half*-grid units with rows ``2l`` / ``2l + 1``
        holding level ``l``'s ``u`` / ``v``, the accumulated distances
        in grid units (infinite where deactivated) and the deactivation
        mask, both ``(G, F, P)`` — every candidate, so the hard arg-min
        and the soft LLR reductions share it.  All three are views of
        ``scratch``, valid until its next walk; with no ``scratch`` they
        are the caller's own.
        """
        group, frames, num_streams, _ = planes.shape
        paths, side = plan.paths, self.system.constellation.side
        edge, clamp = 0.5 * (side - 1), 0.5 * max(side - 2, 0)
        scratch = WalkWorkspace() if scratch is None else scratch
        symbols, ped, dead, z, centre, step, sign, swap, left = scratch.carve(
            walk_layout(num_streams), group, frames, paths
        )
        ped, swap = ped[:, :, 0], swap[:, :, 0]
        half = planes * 0.5
        self._charge(counter, group * frames * paths, num_streams)
        ped[...] = 0.0
        dead[...] = False
        for level in range(num_streams - 1, -1, -1):
            decided = 2 * level + 2
            picked = symbols[:, :, decided - 2 : decided, :]
            # Eq. 5 in half-grid units; the top level's product is empty.
            np.matmul(
                plan.rows[:, None, level, :, decided:],
                symbols[:, :, decided:, :],
                out=z,
            )
            z += half[:, :, level, :, None]
            if level >= num_streams - plan.absolute:
                # An expanded level: the plan's symbol, which never
                # deactivates, in half-grid units.
                np.multiply(plan.offsets[level], 0.5, out=picked)
            elif use_exact:
                picked[...] = self._exact_pick(z, plan.positions[level], xp)
            else:
                # Detection-square centre: nearest even grid point,
                # clamped so its four corners are symbols.
                np.clip(np.rint(z, out=centre), -clamp, clamp, out=centre)
                within = np.subtract(z, centre, out=step)
                # Which of the eight triangles: the reflections are a
                # sign per plane (of half a unit: the plan's offsets are
                # in grid units), the diagonal swap a 0/1 weight on the
                # plan's (dv - du, du - dv).
                np.copysign(0.5, within, out=sign)
                np.abs(within, out=within)
                np.greater(within[:, :, 1], within[:, :, 0], out=swap)
                np.multiply(
                    plan.swap_delta[level], swap[:, :, None, :], out=step
                )
                step += plan.offsets[level]
                step *= sign
                step += centre
                np.clip(step, -edge, edge, out=picked)
                dead |= np.not_equal(picked, step, out=left)
            z -= picked
            z *= z
            distance = np.add(z[:, :, 0], z[:, :, 1], out=swap)
            distance *= plan.weights[:, level][:, None, None]
            ped += distance
        # Half units squared are a quarter of Eq. 1's.
        ped *= 4.0
        gone = dead[:, :, 0]
        gone |= dead[:, :, 1]
        ped[gone] = np.inf
        return symbols, ped, gone

    def _exact_pick(self, z, ranks, xp):
        """Exhaustive k-th-closest grid point per element (half-grid
        units in and out) — the ablation the triangle LUT is measured
        against.  Never leaves the constellation, so never deactivates."""
        grid = self.system.constellation
        grid = grid.device_constant(xp, grid.grid_points) * 0.5
        distances = (z[:, :, 0, :, None] - grid[0]) ** 2 + (
            z[:, :, 1, :, None] - grid[1]
        ) ** 2
        order = np.argsort(distances, axis=-1)
        ranks = np.broadcast_to(ranks, tuple(order.shape[:3]))
        kth = np.take_along_axis(order, ranks[..., None] - 1, axis=-1)[..., 0]
        return np.stack([grid[0][kth], grid[1][kth]], axis=2)

    # ------------------------------------------------------------------
    def _row_plan(self, context: FlexCoreContext, xp) -> "_StackedContexts":
        """The plan of one row, read straight off its block."""
        return self._build_plan(context.block, [context.row], context.active_paths, xp)

    def _group_plan(self, block: PreparedBlock, members, paths, xp, store) -> "_StackedContexts":
        """The unclamped plan of rows ``members`` of ``block``, all of
        ``paths`` paths: kept on the block under those rows when a store
        is given (the store counts the hit or miss), so governor clamps,
        applied afterwards by slicing, always find it."""
        if store is None:
            return self._build_plan(block, members, paths, xp)
        key = (xp, paths, members.tobytes())
        covered = sum(len(plan.weights) for plan in block.plans.values())
        if key not in block.plans and covered + len(members) > PLAN_COVER * len(block):
            block.plans.clear()
        return store.plan(
            block.plans, key, lambda: self._build_plan(block, members, paths, xp)
        )

    def _build_plan(self, block: PreparedBlock, members, paths: int, xp) -> "_StackedContexts":
        """Upload a group's rows of the block and derive its plan.

        Six uploads — ``Q*``, ``R``, the diagonal, the weights, the
        position vectors, the inverse permutations — and everything the
        walk reads is derived from them on the module.
        """
        num_streams = self.system.num_streams
        scale = self.system.constellation.scale
        r = xp.asarray(block.qr.r[members])
        diag = xp.asarray(block.diag[members])
        weights = xp.asarray(block.diag[members] ** 2)
        real = np.real(r) / diag[:, :, None]
        imag = np.imag(r) / diag[:, :, None]
        # Negated, so the core adds the product to the received point.
        rows = np.zeros((len(members), num_streams, 2, 2 * num_streams), dtype=np.float64)
        rows[:, :, 0, 0::2] = -real
        rows[:, :, 0, 1::2] = imag
        rows[:, :, 1, 0::2] = -imag
        rows[:, :, 1, 1::2] = -real
        return _StackedContexts(
            q_conj=xp.asarray(np.conj(block.qr.q[members])),
            inverse_permutation=xp.asarray(np.argsort(block.qr.permutation[members], axis=1)),
            to_grid=(1.0 / (diag * scale))[:, None, :],
            rows=rows,
            weights=weights * scale**2,
            **self._path_plan(block, members, paths, xp),
        )

    def _path_plan(self, block: PreparedBlock, members, paths: int, xp) -> dict:
        """The plan's per-path fields for rows ``members``: the LUT
        offsets of their first ``paths`` position vectors."""
        # Level-major, path axis last: one level is one slab, one budget
        # clamp is one slice.
        positions = xp.asarray(
            np.ascontiguousarray(
                block.search.position_vectors[members, :paths].transpose(2, 0, 1)
            )[:, :, None, :]
        )
        offsets, swap_delta = self.ordering.path_offsets(positions, xp)
        return dict(
            offsets=offsets,
            swap_delta=swap_delta,
            positions=positions if self.use_exact_ordering else None,
        )


#: The plan's per-path fields, laid out ``(Nt, G, ..., P)``: the group
#: on their second axis, the paths on their last.
_LEVEL_MAJOR = ("offsets", "swap_delta", "positions")


@dataclass
class _StackedContexts:
    """The walk plan of one group: what no received frame changes.

    Every field is on the kernel's side of ``xp``.  A plan is built
    (uploaded and derived) once per group and — when a
    :class:`~repro.runtime.residency.ResidentContextStore` is in play —
    reused device-side across calls; path budgets are applied with
    :meth:`clamp`, a zero-copy slice of the fields that carry a path
    axis (always their last).
    """

    #: ``(G, Nr, Nt)`` pre-conjugated ``Q``: rotation is a bare matmul.
    q_conj: "object"
    #: ``(G, Nt)`` stream order to restore decisions to.
    inverse_permutation: "object"
    #: ``(G, 1, Nt)`` ``1 / (diag * scale)``: rotated point to grid units.
    to_grid: "object"
    #: ``(G, Nt, 2, 2 Nt)`` row ``l`` of ``-R / diag`` as a real block;
    #: columns ``2j`` / ``2j + 1`` multiply level ``j``'s ``u`` / ``v``.
    rows: "object"
    #: ``(G, Nt)`` ``diag**2 * scale**2``: Eq. 1's weights in grid units.
    weights: "object"
    #: ``(Nt, G, 1, 2, P)`` canonical LUT offsets ``(du, dv)`` per path.
    offsets: "object"
    #: ``(Nt, G, 1, 2, P)`` what the diagonal swap adds: ``(dv - du,
    #: du - dv)``.
    swap_delta: "object"
    #: ``(Nt, G, 1, P)`` ranks — the exact-ordering ablation only.
    positions: "object | None"
    #: Top levels at which every path takes the symbol ``offsets`` holds
    #: for it (grid coordinates), not a LUT rank: FCSD's ``L``.
    absolute: int = 0

    @property
    def paths(self) -> int:
        return int(self.offsets.shape[-1])

    def grid_planes(self, rotated):
        """Rotated ``(G, F, Nt)`` points as ``(G, F, Nt, 2)`` real /
        imaginary planes in grid units."""
        return np.stack(
            [np.real(rotated) * self.to_grid, np.imag(rotated) * self.to_grid],
            axis=3,
        )

    def restore_order(self, values):
        """Un-permute axis 2 of ``(G, F, Nt)`` or ``(G, F, Nt, bits)``
        per-stream values to original stream order."""
        order = self.inverse_permutation[:, None, :]
        if len(values.shape) == 4:
            order = order[..., None]
        return np.take_along_axis(
            values, np.broadcast_to(order, tuple(values.shape)), axis=2
        )

    def subcarriers(self, rows: slice) -> "_StackedContexts":
        """The plan of a run of the group's subcarriers, for one tile of
        the walk — views, as :meth:`clamp`'s."""
        return replace(
            self,
            **{
                field.name: value[:, rows] if field.name in _LEVEL_MAJOR else value[rows]
                for field in fields(self)
                if field.name != "absolute" and (value := getattr(self, field.name)) is not None
            },
        )

    def clamp(self, max_paths: "int | None") -> "_StackedContexts":
        """Slice the plan down to a path budget — views, not copies, so
        clamping a resident plan moves zero bytes."""
        if max_paths is None or max_paths >= self.paths:
            return self
        return replace(
            self,
            **{
                name: value[..., : int(max_paths)]
                for name in _LEVEL_MAJOR
                if (value := getattr(self, name)) is not None
            },
        )
