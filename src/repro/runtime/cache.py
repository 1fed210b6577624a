"""Channel-coherence-aware context cache.

§4 of the paper amortises pre-processing (QR, error-probability model,
position-vector upload) over the coherence time of the channel: the same
context serves every OFDM symbol — and every retransmission — until the
channel changes.  The link layer expresses that coherence implicitly by
handing the stack *identical channel matrices* (a testbed trace cycling
its frames, a static packet channel); the cache recovers the amortisation
by addressing contexts by the channel bytes, with no explicit coherence
bookkeeping required from the caller.

Keys are exact (:func:`block_context_keys`) and made once, where a
channel enters: an :class:`~repro.runtime.batch.UplinkBatch` may carry
them (a streaming flush hands over its micro-batcher's).  Entries are
block-granular: a miss block is prepared as one stacked block and stays
one, and a batch repeating a cached block exactly costs one lookup plus
its LRU touches and gets that block back, the walk plans kept on it
included (:mod:`repro.runtime.residency`).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.flops import NULL_COUNTER, FlopCounter


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of a :class:`ContextCache`.

    ``hits``/``misses``/``evictions`` are counters (lifetime, or a batch
    delta when the snapshot came from
    :meth:`ContextCache.stats.since <CacheStats.since>`); ``entries`` is
    the resident context count at snapshot time.  The runtime surfaces
    one of these per batch in
    :attr:`repro.runtime.batch.BatchDetectionResult.stats` under the
    ``"cache"`` key — one per cell when the workload is sharded across a
    cell farm.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def since(self, before: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier snapshot.

        ``entries`` is not a counter, so the newer snapshot's value is
        kept as-is.
        """
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            entries=self.entries,
        )


def context_key(channel: np.ndarray, noise_var: float) -> bytes:
    """The exact key of one ``prepare`` input: row 0 of
    :func:`block_context_keys` on the one-channel block ``channel[None]``.

    Detector contexts are pure functions of ``(channel, noise_var)`` (the
    batching contract on :meth:`repro.detectors.base.Detector.prepare`)
    and the key holds both, so equal keys mean interchangeable contexts.
    """
    channel = np.asarray(channel)
    return _prefix(channel, noise_var) + np.ascontiguousarray(channel).tobytes()


def block_context_keys(channels: np.ndarray, noise_var: float) -> list[bytes]:
    """Exact context keys of a ``(S, Nr, Nt)`` channel block, one per channel.

    A key is the block's ``(Nr, Nt)`` shape, dtype and ``noise_var``
    followed by the channel's own bytes: no digest, so keys cannot
    collide.  One copy into an ``(S, prefix + row)`` byte buffer makes
    them all; contiguous or not, they are the channels' own
    :func:`context_key`.
    """
    channels = np.asarray(channels)
    if channels.ndim != 3:
        raise ConfigurationError(f"block_context_keys wants (S, Nr, Nt), got {channels.shape}")
    prefix = np.frombuffer(_prefix(channels, noise_var), dtype=np.uint8)
    rows = np.ascontiguousarray(channels).reshape(len(channels), math.prod(channels.shape[1:]))
    rows = rows.view(np.uint8)
    keys = np.empty((len(rows), prefix.size + rows.shape[1]), dtype=np.uint8)
    keys[:, : prefix.size] = prefix
    keys[:, prefix.size :] = rows
    return keys.view(np.dtype((np.void, keys.shape[1]))).ravel().tolist()


def _prefix(channels: np.ndarray, noise_var: float) -> bytes:
    """What a block's keys share: its channels' shape, dtype and noise."""
    return f"{channels.shape[-2:]}{channels.dtype.str}".encode() + np.float64(noise_var).tobytes()


class _Held:
    """A prepared sequence entries point into, its rows' keys and how many still do."""

    __slots__ = ("sequence", "keys", "live")

    def __init__(self, sequence, keys: list, live: int = 0):
        self.sequence, self.keys, self.live = sequence, keys, live


class ContextCache:
    """LRU cache of prepared channels, one entry per channel.

    ``detector.prepare_many`` returns a sequence indexable by channel —
    FlexCore's one stacked :class:`~repro.flexcore.preprocessing.PreparedBlock`
    — and an entry maps a channel's key to ``(that sequence, row)``.  A
    batch of exactly one cached sequence's keys in order (a warm stream's
    steady state) gets that sequence back after one lookup; rows of one
    sequence in another order or with repeats (a streaming flush) get its
    ``select``; rows of several get gathered into a new sequence, and
    their entries move to it.

    One cache serves one detector configuration (its
    :class:`~repro.runtime.cells.Cell` owns it); sharing a cache between
    differently-configured detectors would serve wrong contexts, so
    :class:`repro.api.UplinkStack` never hands a cell's cache to another
    detector.

    Parameters
    ----------
    max_entries:
        LRU capacity.  Sized to cover one coherence block of subcarriers
        (48 for 20 MHz Wi-Fi, 1200 for 20 MHz LTE) times the number of
        distinct noise operating points probed concurrently.  The rows
        the cached sequences hold stay within it plus one batch.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries <= 0:
            raise ConfigurationError("cache needs at least one entry")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[bytes, tuple[_Held, int]]" = OrderedDict()
        self._rows = 0  # of the sequences at least one entry points into
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get_or_prepare(self, detector, channel, noise_var, counter=NULL_COUNTER) -> Any:
        """Serve ``detector.prepare(channel, noise_var)`` with coherence
        reuse: row 0 of the one-channel block."""
        return self.get_or_prepare_block(detector, np.asarray(channel)[None], noise_var, counter)[0]

    def get_or_prepare_block(
        self,
        detector,
        channels: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
        keys: "list[bytes] | None" = None,
    ):
        """Serve a whole ``(S, Nr, Nt)`` coherence block: a sequence
        indexable by subcarrier, under ``keys`` when the caller already
        made the block's :func:`block_context_keys`.

        A hit charges nothing to ``counter`` — the amortisation being
        measured.  Misses are deduplicated into one ``prepare_many`` call,
        and hit, miss and eviction counts and charged FLOPs are those of
        one LRU lookup per subcarrier, in order, each miss on its own.
        """
        channels = np.asarray(channels)
        keys = block_context_keys(channels, noise_var) if keys is None else list(keys)
        entries = self._entries
        held, row = entries.get(keys[0], (None, 1)) if keys else (None, 1)
        if row == 0 and held.live == len(held.keys) == len(keys) and held.keys == keys:
            # A cached block repeated exactly: each key still points at its row.
            self.hits += len(keys)
            for key in held.keys:
                entries.move_to_end(key)
            return held.sequence

        def prepare(rows):
            return detector.prepare_many(channels[rows], noise_var, counter=counter)

        if entries.keys().isdisjoint(keys) and len(set(keys)) == len(keys):
            # Every key new and distinct (or none): one block, entered whole.
            sequence = prepare(np.arange(len(keys)))
            self.misses += len(keys)
            self._enter(keys, sequence)
            self._evict()
        else:
            sequence = self._replay(keys, prepare)
        self._compact(len(keys))
        return sequence

    def _replay(self, keys: list, prepare):
        """The exact fallback: one LRU lookup per subcarrier, in order,
        the misses prepared up front, deduplicated, as one block."""
        entries = self._entries
        fresh: dict[bytes, int] = {}
        for sc, key in enumerate(keys):
            if key not in entries:
                fresh.setdefault(key, sc)
        if fresh:
            prepared = _Held(prepare(list(fresh.values())), list(fresh))
            fresh = dict(zip(fresh, range(len(fresh))))
        pairs = []
        for sc, key in enumerate(keys):
            pair = entries.get(key)
            if pair is not None:
                self.hits += 1
                entries.move_to_end(key)
            else:
                self.misses += 1
                row = fresh.pop(key, None)
                # A duplicate whose first entry was already evicted (a cache
                # smaller than the block) is prepared again, as the serial loop does.
                pair = (prepared, row) if row is not None else (_Held(prepare([sc]), [key]), 0)
                self._point(key, pair)
                self._evict()
            pairs.append(pair)
        first, rows = pairs[0][0], [row for _, row in pairs]
        if any(held is not first for held, _ in pairs):
            # Rows of several sequences: gathered into one, which their
            # entries then point into.
            gathered = _Held(_gather([(held.sequence, row) for held, row in pairs]), keys)
            for sc, key in enumerate(keys):
                if key in entries:
                    self._point(key, (gathered, sc))
            return gathered.sequence
        if rows == list(range(len(first.keys))):
            return first.sequence
        select = getattr(first.sequence, "select", None)
        return select(rows) if select else [first.sequence[row] for row in rows]

    def _point(self, key: bytes, pair: "tuple[_Held, int]") -> None:
        """Point ``key`` at ``pair``, counting the rows held."""
        if key in self._entries:
            self._release([self._entries[key][0]])
        held, _ = self._entries[key] = pair
        self._rows += 0 if held.live else len(held.keys)
        held.live += 1

    def _release(self, helds) -> None:
        for held in helds:
            held.live -= 1
            self._rows -= 0 if held.live else len(held.keys)

    def _evict(self) -> None:
        """Drop least recently used entries down to ``max_entries``; one release loop."""
        excess = max(len(self._entries) - self.max_entries, 0)
        self._release([self._entries.popitem(last=False)[1][0] for _ in range(excess)])
        self.evictions += excess

    def _compact(self, batch: int) -> None:
        """Keep the rows of the sequences the entries point into within
        ``max_entries`` plus one ``batch``.

        A sequence lives while any entry points into it, so evictions and
        moves can leave a few entries pinning a mostly dead one.  Past
        the bound, every entry is gathered into one new sequence with no
        dead row.
        """
        if self._rows > self.max_entries + batch:
            keys, pairs = list(self._entries), list(self._entries.values())
            self.clear()
            self._enter(keys, _gather([(held.sequence, row) for held, row in pairs]))

    def _enter(self, keys: list, sequence) -> None:
        """Enter new ``keys``, in order, each at its row of ``sequence``."""
        held = _Held(sequence, keys, live=len(keys))
        self._entries.update(zip(keys, zip(repeat(held), range(len(keys)))))
        self._rows += len(keys)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all contexts (e.g. on a coherence-interval boundary)."""
        self._entries.clear()
        self._rows = 0

    @property
    def stats(self) -> CacheStats:
        """Lifetime counters plus current occupancy as a snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._entries),
        )


def _gather(pairs):
    """One new sequence of the ``(sequence, row)`` ``pairs``' rows: a
    prepared block's own ``gather``, else a list of the rows."""
    gather = getattr(pairs[0][0], "gather", None)
    if gather is not None:
        return gather(pairs)
    return [prepared[row] for prepared, row in pairs]
