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
the soft detector's two entry points — runs the same two pieces, so the
per-channel loop and the stacked kernel are bit-identical by
construction, on any array module (:mod:`repro.utils.xp`) — *within a
lane*.  The core has two: the **portable** level loop below, every
operation an array-module op (torch, cupy, no compiler, the
exact-ordering ablation; also the tests' oracle), and the **native**
one, ``xp.walk_tile`` — the same arithmetic in the same order as one
GIL-free C call per tile (:mod:`repro.native`, numpy only), which is
what makes a tile a schedulable processing element.  The detectors'
own native lane goes one step further (``xp.detect_group``,
:meth:`FlexCoreDetector._decide`): a whole equal-path group in one call
that walks each frame into scratch and reduces it right there — arg-min,
symbol lookup, stream order, the soft detector's list — so that, as from
the paper's processing elements, only decisions leave the kernel;
``walk_tile`` stays for the candidate list and as the oracle that call
is pinned to.  A group with enough walk to share is cut along ``G`` into
runs, one call each, spread over the process's CPUs (:func:`repro.
native.fan_out`) — which is only sound while nothing couples one
subcarrier's walk to another's, in either lane: keep it that way.
Across entry points and tilings a lane agrees with itself to the bit;
across lanes symbols, the dead mask and FLOP charges are equal and
distances differ only by the summation order of the interference
product (BLAS in one, increasing ``j`` in the other: a few ulp).

**The plan** (:class:`_StackedContexts`) is everything about a group of
``G`` channels that no received frame changes, built once and kept
device-side by the :class:`~repro.runtime.residency.
ResidentContextStore`.  Hoisted into it: each path's canonical triangle
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
axis — ``symbols``, the distances, the dead mask and, on the portable
lane, the level's temporaries (:func:`walk_layout`; the native lane has
``(3 + 4 Nt) P`` doubles of scratch instead, the fused call ``(6 + 6 Nt)
P`` and nothing else) — is a view of a
:class:`WalkWorkspace`, and every operation of the level body writes
into it through ``out=``.  The workspace belongs to the ``store`` a
stacked entry point is handed (one per array module, kept until
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
    PreprocessingResult,
    find_promising_paths,
    find_promising_paths_block,
)
from repro.flexcore.probability import LevelErrorModel
from repro.mimo.qr import (
    QrDecomposition,
    fcsd_sorted_qr,
    plain_qr,
    sorted_qr,
    stacked_fcsd_sorted_qr,
    stacked_plain_qr,
    stacked_sorted_qr,
)
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


def walk_layout(num_streams: int, native: bool = False) -> tuple:
    """What the core holds per (subcarrier, frame, path) element, as
    ``(name, dtype, planes)`` rows: the list :meth:`WalkWorkspace.carve`
    turns into buffers and :func:`tile_shape` into a footprint.  The
    ``native`` layout — results only, a level's temporaries live in the
    kernel's scratch — is carved by :meth:`FlexCoreDetector._walk` alone,
    for ``_candidate_list`` and the lane-equivalence tests: tiles are
    sized for the portable rows, and the fused lane carves neither."""
    results = (("symbols", "float64", 2 * num_streams), ("ped", "float64", 1))
    if native:
        return results + (("dead", "bool_", 1),)
    return results + (
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
    """Grow-only scratch memory of the walk on one array module.

    Each named buffer is flat, grows to the largest size ever asked of
    it (a tile bounds that) and is handed out as a view, so a warm walk
    allocates nothing.  Whoever holds the workspace owns the views: the
    next :meth:`carve` of the same names reuses their memory.
    """

    def __init__(self, xp):
        self._xp = xp
        self._flat: dict = {}

    def carve(self, layout, group: int, frames: int, paths: int) -> list:
        """A ``(group, frames, planes, paths)`` view per ``layout`` row."""
        views = []
        for name, dtype, planes in layout:
            size = group * frames * planes * paths
            flat = self._flat.get(name)
            if flat is None or flat.shape[0] < size:
                flat = self._flat[name] = self._xp.empty(
                    (size,), dtype=getattr(self._xp, dtype)
                )
            views.append(flat[:size].reshape((group, frames, planes, paths)))
        return views


@dataclass
class FlexCoreContext:
    """Per-channel state produced by :meth:`FlexCoreDetector.prepare`."""

    qr: QrDecomposition
    diag: np.ndarray
    weights: np.ndarray
    preprocessing: PreprocessingResult
    active_paths: int

    @property
    def position_vectors(self) -> np.ndarray:
        return self.preprocessing.position_vectors[: self.active_paths]


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
        channel = self._check_channel(channel)
        with current_tracer().span(
            SPAN_QR, method=self.qr_method, channels=1
        ):
            if self.qr_method == "sorted":
                qr = sorted_qr(channel, counter=counter)
            elif self.qr_method == "fcsd":
                qr = fcsd_sorted_qr(channel, 1, noise_var, counter=counter)
            else:
                qr = plain_qr(channel, counter=counter)
        return self._context_from_qr(qr, noise_var, counter)

    def prepare_many(
        self,
        channels: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> list[FlexCoreContext]:
        """Prepare a ``(C, Nr, Nt)`` block with no per-channel Python.

        The QR of every channel runs in a single stacked call
        (:func:`~repro.mimo.qr.stacked_sorted_qr` and friends), the
        stacked R-diagonals feed one vectorised error-model evaluation,
        and the ``C`` best-first tree searches run in lockstep
        (:func:`~repro.flexcore.preprocessing.find_promising_paths_block`)
        — the batched cache-miss path of the runtime, end to end.
        Contexts and charged FLOPs are bit-identical to calling
        :meth:`prepare` once per channel.
        """
        channels = np.asarray(channels)
        if channels.ndim != 3:
            raise DimensionError(
                f"{self.name}: prepare_many wants (C, Nr, Nt) channels, "
                f"got {channels.shape}"
            )
        for c in range(channels.shape[0]):
            self._check_channel(channels[c])
        # The ambient tracer (installed by DetectionService.detect) is
        # how these kernels report without threading a tracer through
        # every prepare signature — cache-miss path only, so the
        # contextvar lookup never taxes the warm path.
        tracer = current_tracer()
        with tracer.span(
            SPAN_QR, method=self.qr_method, channels=channels.shape[0]
        ):
            if self.qr_method == "sorted":
                qrs = stacked_sorted_qr(channels, counter=counter)
            elif self.qr_method == "fcsd":
                qrs = stacked_fcsd_sorted_qr(
                    channels, 1, noise_var, counter=counter
                )
            else:
                qrs = stacked_plain_qr(channels, counter=counter)
        return self._contexts_from_qrs(qrs, noise_var, counter)

    def _context_from_qr(
        self,
        qr: QrDecomposition,
        noise_var: float,
        counter: FlopCounter,
    ) -> FlexCoreContext:
        """Single-channel tail of ``prepare``: error model, path search,
        context assembly."""
        model = LevelErrorModel.from_channel(
            qr.r, noise_var, self.system.constellation, formula=self.pe_formula
        )
        with current_tracer().span(
            SPAN_TREE_SEARCH, channels=1, path_budget=self.num_paths
        ):
            preprocessing = find_promising_paths(
                model,
                num_paths=self.num_paths,
                max_rank=self.system.constellation.order,
                stop_threshold=self.stop_threshold,
                batch_size=self.batch_expansion,
                counter=counter,
            )
        return self._finalize_context(qr, preprocessing)

    def _contexts_from_qrs(
        self,
        qrs: "list[QrDecomposition]",
        noise_var: float,
        counter: FlopCounter,
    ) -> list[FlexCoreContext]:
        """Block tail of ``prepare_many``: stacked error model, lockstep
        path search, per-channel context assembly.

        The stacked QR's R-diagonals feed one vectorised
        :meth:`LevelErrorModel.from_channels` call and the ``C``
        tree searches run as a single
        :func:`~repro.flexcore.preprocessing.find_promising_paths_block`
        — no per-channel Python on the miss path.  Contexts and charged
        FLOPs are bit-identical to :meth:`_context_from_qr` per channel;
        subclasses customise both paths through
        :meth:`_finalize_context` (a-FlexCore trims ``active_paths``).
        """
        if not qrs:
            return []
        models = LevelErrorModel.from_channels(
            np.stack([np.diagonal(qr.r) for qr in qrs]),
            noise_var,
            self.system.constellation,
            formula=self.pe_formula,
        )
        with current_tracer().span(
            SPAN_TREE_SEARCH,
            channels=len(qrs),
            path_budget=self.num_paths,
        ):
            block = find_promising_paths_block(
                models,
                num_paths=self.num_paths,
                max_rank=self.system.constellation.order,
                stop_threshold=self.stop_threshold,
                batch_size=self.batch_expansion,
                counter=counter,
            )
        return [
            self._finalize_context(qr, preprocessing)
            for qr, preprocessing in zip(qrs, block)
        ]

    def _finalize_context(
        self, qr: QrDecomposition, preprocessing: PreprocessingResult
    ) -> FlexCoreContext:
        """Assemble one context from a QR and its search result.

        The shared hook of the single and stacked prepare paths:
        subclasses overriding it (a-FlexCore trims ``active_paths``)
        stay in lockstep across both automatically.
        """
        diag = np.real(np.diagonal(qr.r)).copy()
        return FlexCoreContext(
            qr=qr,
            diag=diag,
            weights=diag**2,
            preprocessing=preprocessing,
            active_paths=preprocessing.position_vectors.shape[0],
        )

    # ------------------------------------------------------------------
    def detect_prepared(
        self,
        context: FlexCoreContext,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        received = self._check_received(received)
        xp = resolve_array_module(None)
        indices, deactivated = self._detect_group(
            self._plan([context], xp),
            received[None],
            xp,
            counter,
            WalkWorkspace(xp),
        )
        return DetectionResult(
            indices=indices[0],
            metadata={
                "paths": context.position_vectors.shape[0],
                "deactivated_path_evaluations": int(deactivated[0]),
            },
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
        """Detect a ``(S, F, Nr)`` block over ``S`` prepared contexts.

        Subcarriers sharing an active path count are stacked into one
        ``(G, F, P)`` element tensor and all their tree levels walk in a
        handful of array operations — the §5.2 "thousands of independent
        processing elements" mapping.  ``xp`` selects the array module
        (numpy default; cupy/torch run the same kernel on their own
        arrays).  Under numpy the result is bit-identical to calling
        :meth:`detect_prepared` per subcarrier.

        ``store`` is an optional
        :class:`~repro.runtime.residency.ResidentContextStore`: the
        group's walk plan is fetched from it device-side on warm calls,
        so only ``received`` is uploaded.  ``max_paths`` applies the
        control plane's path budget by *slicing* the (resident) plan —
        a view, never a re-upload, and never a mutation of the cached
        contexts.

        Returns ``(indices, metadata)``: ``(S, F, Nt)`` hard decisions in
        original stream order plus one metadata dict per subcarrier,
        matching what the per-subcarrier loop would produce.  ``indices``
        comes home in a single ``to_numpy``.
        """
        xp = resolve_array_module(xp)
        received = self._check_block_received(contexts, received)
        num_subcarriers, num_frames, _ = received.shape
        num_streams = self.system.num_streams
        # One upload per call: groups slice it device-side.
        received_dev = xp.asarray(received)
        indices_dev = xp.zeros(
            (num_subcarriers, num_frames, num_streams), dtype=xp.int64
        )
        metadata: list = [None] * num_subcarriers
        scratch = self._scratch(xp, store)
        groups = self._group_by_paths(contexts, max_paths)
        for (_prepared, paths), members in groups.items():
            block_indices, deactivated = self._detect_group(
                self._plan([contexts[sc] for sc in members], xp, store, paths),
                received_dev[members],
                xp,
                counter,
                scratch,
            )
            indices_dev[members] = block_indices
            for j, sc in enumerate(members):
                metadata[sc] = {
                    "paths": paths,
                    "deactivated_path_evaluations": int(deactivated[j]),
                }
        indices = np.asarray(xp.to_numpy(indices_dev), dtype=np.int64)
        return indices, metadata

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
    def _group_by_paths(
        contexts, max_paths: "int | None" = None
    ) -> "dict[tuple[int, int], list[int]]":
        """Subcarrier indices grouped by ``(prepared, effective)`` paths.

        Contexts in a group stack into one rectangular ``(G, F, P)``
        walk; groups differ only when pre-processing stopped early or
        a-FlexCore trimmed the active set.  ``effective`` is the prepared
        count clamped to the ``max_paths`` budget — a pure function of
        ``prepared`` within one call, so group membership (and therefore
        the residency key of each group's plan) is stable while an AIMD
        governor sweeps the budget up and down."""
        groups: dict[tuple[int, int], list[int]] = {}
        for sc, context in enumerate(contexts):
            prepared = context.position_vectors.shape[0]
            effective = (
                prepared
                if max_paths is None
                else min(prepared, int(max_paths))
            )
            groups.setdefault((prepared, effective), []).append(sc)
        return groups

    @staticmethod
    def _scratch(xp, store) -> WalkWorkspace:
        """The store's workspace on ``xp``; a private one without a store."""
        if store is None:
            return WalkWorkspace(xp)
        return store.scratch(xp, WalkWorkspace)

    def _detect_group(
        self, plan, received, xp, counter: FlopCounter, scratch: WalkWorkspace
    ) -> tuple:
        """Hard-detect one equal-path-count group over its walk plan.

        ``received`` ``(G, F, Nr)`` is already on the module.  Returns
        device-side decisions ``(G, F, Nt)`` plus host per-subcarrier
        deactivation counts, downloaded once.
        """
        planes = plan.grid_planes(xp.matmul(received, plan.q_conj), xp)
        if not self.use_exact_ordering and xp.detect_group is not None:
            indices, _, deactivated = self._decide(plan, planes, xp, counter, scratch)
        else:
            group, frames, num_streams, _ = planes.shape
            winners = xp.empty((group, frames, 2 * num_streams), dtype=xp.float64)
            deactivated = xp.zeros((group,), dtype=xp.int64)
            for rows, cols, symbols, ped, dead in self._walk_tiles(
                plan, planes, xp, counter, self.use_exact_ordering, scratch
            ):
                winners[rows, cols] = self._winner(symbols, ped, xp)
                deactivated[rows] += xp.count_nonzero(dead, axis=(1, 2))
            indices = plan.restore_order(self._symbol_indices(winners, xp), xp)
        return indices, np.asarray(xp.to_numpy(deactivated), dtype=np.int64)

    def _decide(
        self, plan, planes, xp, counter, scratch, noise_var=None, llr_clip=0.0
    ) -> tuple:
        """The fused lane: ``xp.detect_group`` walks the group and reduces
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
        indices = xp.empty((group, frames, num_streams), dtype=xp.int64)
        counts = xp.empty((group,), dtype=xp.int64)
        llrs = None
        if noise_var is not None:
            llrs = xp.empty((group, frames, width), dtype=xp.float64)
            counter.add_comparisons(group * frames * plan.paths * width)
        runs = max(1, min(native.pes(), group, walk_flops // native.RUN_FLOPS))
        (work,) = scratch.carve(
            (("kernel", "float64", 6 + 6 * num_streams),), runs, 1, plan.paths
        )
        half = planes * 0.5
        table = constellation.device_constant(xp, constellation.grid_index_table)

        def run(k):
            rows = slice(group * k // runs, group * (k + 1) // runs)
            part = plan if runs == 1 else plan.subcarriers(rows)
            xp.detect_group(
                half[rows], part.rows, part.weights, part.offsets, part.swap_delta,
                0.5 * max(side - 2, 0), 0.5 * (side - 1), part.inverse_permutation,
                table, 0.0 if noise_var is None else noise_var, llr_clip,
                indices[rows], None if llrs is None else llrs[rows], counts[rows], work[k],
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
    def _winner(values, ped, xp):
        """``values`` ``(G, F, K, P)`` on each frame's arg-min path:
        ``(G, F, K)`` — one flat gather, row ``r`` of the ``(G F K, P)``
        matrix starting at ``r * P``."""
        group, frames, planes, paths = values.shape
        rows = xp.arange(group * frames * planes) * paths
        return xp.take(
            values,
            xp.argmin(ped, axis=2)[:, :, None] + rows.reshape((group, frames, planes)),
        )

    def _cells(self, symbols, xp, out=None):
        """Row-major cell, in the constellation's ``side x side``
        position table, of each walked point: axis 2 of ``symbols``
        interleaves ``u`` and ``v`` in half-grid units (the core's
        layout) and comes back half as long.  Integer-valued float64:
        ``(2u + side - 1) / 2 * side + (2v + side - 1) / 2``."""
        side = self.system.constellation.side
        cells = xp.multiply(symbols[:, :, 0::2], float(side), out=out)
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
        return table.reshape(-1)[
            xp.astype(self._cells(symbols, xp), xp.int64)
        ]

    def _walk(
        self,
        planes,
        plan: "_StackedContexts",
        xp,
        counter: FlopCounter,
        use_exact: bool,
        scratch: "WalkWorkspace | None" = None,
    ):
        """The level loop: walk ``(G, F, P)`` elements down the tree.

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
        paths = plan.paths
        side = self.system.constellation.side
        edge = 0.5 * (side - 1)
        clamp = 0.5 * max(side - 2, 0)
        if scratch is None:
            scratch = WalkWorkspace(xp)
        kernel = None if use_exact else xp.walk_tile
        symbols, ped, dead, *level_body = scratch.carve(
            walk_layout(num_streams, kernel is not None), group, frames, paths
        )
        ped = ped[:, :, 0]
        half = planes * 0.5
        self._charge(counter, group * frames * paths, num_streams)
        if kernel is not None:
            # Every level in one GIL-free call; the kernel zeroes for itself.
            (work,) = scratch.carve((("kernel", "float64", 3 + 4 * num_streams),), 1, 1, paths)
            kernel(half, plan.rows, plan.weights, plan.offsets,
                   plan.swap_delta, clamp, edge, symbols, ped, dead, work)  # fmt: skip
            return symbols, ped, dead[:, :, 0]
        z, centre, step, sign, swap, left = level_body
        swap = swap[:, :, 0]
        ped[...] = 0.0
        dead[...] = False
        for level in range(num_streams - 1, -1, -1):
            decided = 2 * level + 2
            picked = symbols[:, :, decided - 2 : decided, :]
            # Eq. 5 in half-grid units; the top level's product is empty.
            xp.matmul(
                plan.rows[:, None, level, :, decided:],
                symbols[:, :, decided:, :],
                out=z,
            )
            z += half[:, :, level, :, None]
            if use_exact:
                picked[...] = self._exact_pick(z, plan.positions[level], xp)
            else:
                # Detection-square centre: nearest even grid point,
                # clamped so its four corners are symbols.
                xp.clip(xp.round(z, out=centre), -clamp, clamp, out=centre)
                within = xp.subtract(z, centre, out=step)
                # Which of the eight triangles: the reflections are a
                # sign per plane (of half a unit: the plan's offsets are
                # in grid units), the diagonal swap a 0/1 weight on the
                # plan's (dv - du, du - dv).
                xp.copysign(0.5, within, out=sign)
                xp.abs(within, out=within)
                xp.greater(within[:, :, 1], within[:, :, 0], out=swap)
                xp.multiply(
                    plan.swap_delta[level], swap[:, :, None, :], out=step
                )
                step += plan.offsets[level]
                step *= sign
                step += centre
                xp.clip(step, -edge, edge, out=picked)
                dead |= xp.not_equal(picked, step, out=left)
            z -= picked
            z *= z
            distance = xp.add(z[:, :, 0], z[:, :, 1], out=swap)
            distance *= plan.weights[:, level][:, None, None]
            ped += distance
        # Half units squared are a quarter of Eq. 1's.
        ped *= 4.0
        gone = dead[:, :, 0]
        gone |= dead[:, :, 1]
        ped[gone] = xp.inf
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
        order = xp.argsort(distances, axis=-1)
        ranks = xp.broadcast_to(ranks, tuple(order.shape[:3]))
        kth = xp.take_along_axis(order, ranks[..., None] - 1, axis=-1)[..., 0]
        return xp.stack([grid[0][kth], grid[1][kth]], axis=2)

    # ------------------------------------------------------------------
    def _plan(
        self, contexts, xp, store=None, max_paths: "int | None" = None
    ) -> "_StackedContexts":
        """The group's walk plan, resident when a store is given.

        The store is keyed on the identity of the *unclamped* cached
        contexts, so governor clamps (applied afterwards by slicing)
        always hit the same resident entry.
        """
        if store is None:
            plan = self._build_plan(contexts, xp)
        else:
            plan = store.get_or_build(contexts, xp, self._build_plan)
        return plan.clamp(max_paths)

    def _build_plan(self, contexts, xp) -> "_StackedContexts":
        """Upload a group's context arrays and derive its plan.

        Six uploads — ``Q*``, ``R``, the diagonal, the weights, the
        position vectors, the inverse permutations — and everything the
        walk reads is derived from them on the module.
        """
        num_streams = self.system.num_streams
        scale = self.system.constellation.scale
        r = xp.asarray(np.stack([c.qr.r for c in contexts]))
        diag = xp.asarray(np.stack([c.diag for c in contexts]))
        weights = xp.asarray(np.stack([c.weights for c in contexts]))
        # Level-major, path axis last: one level is one slab, one budget
        # clamp is one slice.
        positions = xp.asarray(
            np.ascontiguousarray(
                np.stack([c.position_vectors for c in contexts]).transpose(
                    2, 0, 1
                )
            )[:, :, None, :]
        )
        real = xp.real(r) / diag[:, :, None]
        imag = xp.imag(r) / diag[:, :, None]
        # Negated, so the core adds the product to the received point.
        rows = xp.zeros(
            (len(contexts), num_streams, 2, 2 * num_streams),
            dtype=xp.float64,
        )
        rows[:, :, 0, 0::2] = -real
        rows[:, :, 0, 1::2] = imag
        rows[:, :, 1, 0::2] = -imag
        rows[:, :, 1, 1::2] = -real
        offsets, swap_delta = self.ordering.path_offsets(positions, xp)
        return _StackedContexts(
            q_conj=xp.asarray(np.conj(np.stack([c.qr.q for c in contexts]))),
            inverse_permutation=xp.asarray(
                np.argsort(
                    np.stack([c.qr.permutation for c in contexts]), axis=1
                )
            ),
            to_grid=(1.0 / (diag * scale))[:, None, :],
            rows=rows,
            weights=weights * scale**2,
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

    Every field lives on the kernel's array module.  A plan is built
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

    @property
    def paths(self) -> int:
        return int(self.offsets.shape[-1])

    def grid_planes(self, rotated, xp):
        """Rotated ``(G, F, Nt)`` points as ``(G, F, Nt, 2)`` real /
        imaginary planes in grid units."""
        return xp.stack(
            [xp.real(rotated) * self.to_grid, xp.imag(rotated) * self.to_grid],
            axis=3,
        )

    def restore_order(self, values, xp):
        """Un-permute axis 2 of ``(G, F, Nt)`` or ``(G, F, Nt, bits)``
        per-stream values to original stream order."""
        order = self.inverse_permutation[:, None, :]
        if len(values.shape) == 4:
            order = order[..., None]
        return xp.take_along_axis(
            values, xp.broadcast_to(order, tuple(values.shape)), axis=2
        )

    def subcarriers(self, rows: slice) -> "_StackedContexts":
        """The plan of a run of the group's subcarriers, for one tile of
        the walk — views, as :meth:`clamp`'s."""
        return replace(
            self,
            **{
                field.name: value[:, rows] if field.name in _LEVEL_MAJOR else value[rows]
                for field in fields(self)
                if (value := getattr(self, field.name)) is not None
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
