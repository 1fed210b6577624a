"""Device residency for the stacked tensor-walk (the §5.2 warm path).

The array backend's stacked kernels walk each equal-path-count group of
a coherence block over one walk plan: the group's rows of the prepared
block uploaded, plus everything derived from them that no frame
changes.  Built on every ``detect`` call, that plan would re-upload the
cached channels each time — the classic GPU-uplink bottleneck where
bandwidth, not compute, bounds throughput.  With a
:class:`ResidentContextStore` in the call the plan is built once and
kept on the prepared block it was derived from
(:attr:`~repro.flexcore.preprocessing.PreparedBlock.plans`), so a warm
:class:`~repro.runtime.cache.ContextCache` hit, which hands the kernel
the same block or rows of it, finds its tensors already device-side and
uploads zero context bytes.

Invalidation needs no bookkeeping: a plan is reachable only through its
block, and the block only through the coherence cache's entries, so when
the cache evicts a channel or moves its row to another block the plan
goes with the block.  No plan can go stale.

Path-budget clamps never build a plan — the kernels slice the plan's
path axis down to the budget (views, no copy, no upload), so an AIMD
governor sweeping ``max_paths`` up and down costs no transfers at all.

The store also owns the kernels' *working* memory: one grow-only
workspace (:meth:`ResidentContextStore.scratch`; the
kernel layer supplies the class, :class:`~repro.flexcore.detector.
WalkWorkspace`), bounded by one tile of the walk whatever the block
size, alive from the first stacked call to :meth:`~ResidentContextStore.
clear` (``ArrayBackend.close()``).  Plans are what a call reads,
the workspace is what it writes; with both resident a warm call neither
uploads nor allocates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResidencyStats:
    """Point-in-time snapshot of a :class:`ResidentContextStore`.

    ``hits``/``misses`` count group walks that found their plan resident
    or built it — exactly one per group walk — as lifetime counters (or
    per-batch deltas via :meth:`since`).  The array path surfaces one
    delta per batch in ``stats["resident"]``.
    """

    hits: int = 0
    misses: int = 0
    #: Plans dropped while their contexts lived on.  A plan lives on its
    #: block, so none is: always 0, kept so every reader of the
    #: residency ledger finds the count.
    invalidations: int = 0

    def since(self, before: "ResidencyStats") -> "ResidencyStats":
        """Counter deltas relative to an earlier snapshot."""
        return ResidencyStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            invalidations=self.invalidations - before.invalidations,
        )


class ResidentContextStore:
    """Keeps walk plans where their blocks keep them, counts the hits and
    misses, and owns the kernels' workspace."""

    def __init__(self):
        self._scratch = None
        self._hits = 0
        self._misses = 0

    @property
    def stats(self) -> ResidencyStats:
        return ResidencyStats(hits=self._hits, misses=self._misses)

    # ------------------------------------------------------------------
    def plan(self, plans: dict, key, build):
        """``plans[key]``, built by ``build()`` and kept there on a miss.

        ``plans`` is the prepared block's own table, so the plan lives
        exactly as long as the block does.
        """
        payload = plans.get(key)
        if payload is None:
            self._misses += 1
            payload = plans[key] = build()
        else:
            self._hits += 1
        return payload

    def scratch(self, factory):
        """The store's one workspace, built by ``factory()`` on first
        use and kept until :meth:`clear`.

        Kernels called with this store walk inside it instead of
        allocating, so nothing they return may alias it, and two calls
        on one store must not overlap — the store is as single-threaded
        as the backend that owns it.
        """
        if self._scratch is None:
            self._scratch = factory()
        return self._scratch

    def clear(self) -> None:
        """Drop the workspace (counters keep accumulating)."""
        self._scratch = None
