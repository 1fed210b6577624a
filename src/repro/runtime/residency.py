"""Device residency for the stacked tensor-walk (the §5.2 warm path).

The array backend's stacked kernels build one walk plan (the stacked
context tensors plus everything derived from them that no frame
changes) per equal-path-count group of a coherence block.  Without
residency that plan is re-uploaded from the cached numpy contexts on
*every* ``detect`` call — the classic GPU-uplink bottleneck where
bandwidth, not compute, bounds throughput.  :class:`ResidentContextStore`
keeps the uploaded stacks alive between calls, keyed by the identity of
the prepared context objects, so a warm
:class:`~repro.runtime.cache.ContextCache` hit finds its tensors already
device-side and uploads zero context bytes.

Invalidation rides the coherence cache for free: the cache holds the
only strong references to prepared contexts, so when it evicts an entry
(or the channel key changes and a fresh context is prepared) the old
context object dies, the store's weak references go dead, and the next
lookup under a recycled key rebuilds instead of serving stale tensors.

Path-budget clamps never touch this store — the kernels slice the
resident plan's path axis down to the budget (views, no copy, no
upload), so an AIMD governor sweeping ``max_paths`` up and down costs no
transfers at all.

The store also owns the kernels' *working* memory: one grow-only
workspace per array module (:meth:`ResidentContextStore.scratch`; the
kernel layer supplies the class, :class:`~repro.flexcore.detector.
WalkWorkspace`), bounded by one tile of the walk whatever the block
size, alive from the first stacked call to :meth:`~ResidentContextStore.
clear` (``ArrayBackend.close()``).  Plans are what a call reads,
the workspace is what it writes; with both resident a warm call neither
uploads nor allocates.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ResidencyStats:
    """Point-in-time snapshot of a :class:`ResidentContextStore`.

    ``hits``/``misses``/``evictions``/``invalidations`` are lifetime
    counters (or per-batch deltas via :meth:`since`); ``entries`` is the
    resident group count at snapshot time.  The array path surfaces one
    delta per batch in ``stats["resident"]``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries dropped because a cached context died (coherence-cache
    #: eviction or channel change) while its key was recycled.
    invalidations: int = 0
    entries: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": self.entries,
        }

    def since(self, before: "ResidencyStats") -> "ResidencyStats":
        """Counter deltas relative to an earlier snapshot.

        ``entries`` is occupancy, not a counter, so the newer value is
        kept as-is.
        """
        return ResidencyStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            invalidations=self.invalidations - before.invalidations,
            entries=self.entries,
        )


class ResidentContextStore:
    """LRU cache of device-side context stacks, validated by identity.

    Entries are keyed by ``(id(module), ids of the group's contexts)``
    and guarded by one weak reference per context: a hit requires every
    weakref to still resolve to the *same* object the key was built
    from, which makes the store immune to CPython id recycling — a dead
    or replaced context invalidates its entry on the next probe.

    The store never holds strong references to contexts, so it cannot
    extend their lifetime past the coherence cache's; the device
    payloads themselves are owned here and bounded by ``max_groups``.
    """

    def __init__(self, max_groups: int = 256):
        if max_groups < 1:
            raise ConfigurationError("max_groups must be >= 1")
        self.max_groups = int(max_groups)
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._scratch: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> ResidencyStats:
        return ResidencyStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            invalidations=self._invalidations,
            entries=len(self._entries),
        )

    # ------------------------------------------------------------------
    def get_or_build(self, contexts, xp, build):
        """The resident payload for ``contexts`` on module ``xp``.

        ``build(contexts, xp)`` runs on a miss and its result (the
        uploaded stack) is kept until evicted or invalidated.  Contexts
        that do not support weak references bypass the store entirely —
        residency degrades to per-call builds rather than failing.
        """
        key = (id(xp), tuple(id(context) for context in contexts))
        entry = self._entries.get(key)
        if entry is not None:
            refs, payload = entry
            if all(
                ref() is context for ref, context in zip(refs, contexts)
            ):
                self._hits += 1
                self._entries.move_to_end(key)
                return payload
            # The key was recycled: at least one original context died
            # (cache eviction / channel change) and a new object landed
            # on the same ids.  Drop the stale tensors and rebuild.
            del self._entries[key]
            self._invalidations += 1
        self._misses += 1
        payload = build(contexts, xp)
        try:
            refs = tuple(weakref.ref(context) for context in contexts)
        except TypeError:
            return payload
        self._sweep()
        self._entries[key] = (refs, payload)
        while len(self._entries) > self.max_groups:
            self._entries.popitem(last=False)
            self._evictions += 1
        return payload

    def _sweep(self) -> None:
        """Drop entries whose contexts died, before LRU eviction kicks in.

        Run on insertion only when the store is at capacity, so steady
        state pays nothing and a full store sheds dead groups instead of
        evicting live ones.
        """
        if len(self._entries) < self.max_groups:
            return
        dead = [
            key
            for key, (refs, _) in self._entries.items()
            if any(ref() is None for ref in refs)
        ]
        for key in dead:
            del self._entries[key]
            self._invalidations += 1

    def scratch(self, xp, factory):
        """The store's one workspace on module ``xp``, built by
        ``factory(xp)`` on first use and kept until :meth:`clear`.

        Kernels called with this store walk inside it instead of
        allocating, so nothing they return may alias it, and two calls
        on one store must not overlap — the store is as single-threaded
        as the backend that owns it.  Modules are held weakly.
        """
        scratch = self._scratch.get(xp)
        if scratch is None:
            scratch = self._scratch[xp] = factory(xp)
        return scratch

    def clear(self) -> None:
        """Drop every resident group and every workspace (counters keep
        accumulating)."""
        self._entries.clear()
        self._scratch.clear()
