"""Channel-coherence-aware context cache.

§4 of the paper amortises pre-processing (QR, error-probability model,
position-vector upload) over the coherence time of the channel: the same
context serves every OFDM symbol — and every retransmission — until the
channel changes.  The link layer expresses that coherence implicitly by
handing the stack *identical channel matrices* (a testbed trace cycling
its frames, a static packet channel); the cache recovers the amortisation
by content-addressing contexts on the channel bytes, with no explicit
coherence bookkeeping required from the caller.

What is cached is one row of a prepared block per channel: a miss block
is prepared as one stacked block and stays one, and a warm batch of the
same channels in the same order gets that block back — the walk plans
kept on it included (:mod:`repro.runtime.residency`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import asdict, dataclass
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
    """Content digest identifying one ``prepare`` input.

    Detector contexts are pure functions of ``(channel, noise_var)`` —
    the batching contract on :meth:`repro.detectors.base.Detector.prepare`
    — so equal digests imply interchangeable contexts.
    """
    channel = np.ascontiguousarray(channel)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(channel.shape).encode())
    digest.update(np.float64(noise_var).tobytes())
    digest.update(channel.tobytes())
    return digest.digest()


def block_context_keys(
    channels: np.ndarray, noise_var: float
) -> list[bytes]:
    """Per-subcarrier context keys for a ``(S, Nr, Nt)`` channel block.

    Byte-identical to ``[context_key(channels[sc], noise_var) for sc in
    ...]`` — contexts cached under one spelling are found under the
    other — but the shared shape/noise digest prefix is hashed once and
    the per-slice ``ascontiguousarray`` copy is skipped entirely when
    the block is already contiguous (slices of a C-contiguous block are
    C-contiguous; one whole-block copy covers the rest).
    """
    channels = np.asarray(channels)
    if channels.ndim != 3:
        raise ConfigurationError(
            f"block_context_keys wants a (S, Nr, Nt) block, got "
            f"{channels.shape}"
        )
    if not channels.flags["C_CONTIGUOUS"]:
        channels = np.ascontiguousarray(channels)
    prefix = (
        str(channels.shape[1:]).encode() + np.float64(noise_var).tobytes()
    )
    keys = []
    for sc in range(channels.shape[0]):
        digest = hashlib.blake2b(digest_size=16)
        digest.update(prefix)
        digest.update(channels[sc].tobytes())
        keys.append(digest.digest())
    return keys


class ContextCache:
    """LRU cache of prepared channels, one entry per channel.

    ``detector.prepare_many`` returns a sequence indexable by channel —
    FlexCore's one stacked :class:`~repro.flexcore.preprocessing.PreparedBlock`
    — and an entry maps a channel's digest to ``(that sequence, row)``.
    A batch whose rows are exactly one cached sequence in its prepared
    order, the steady state of a warm stream, gets that sequence back
    unchanged; rows of one sequence in another order or with repeats (a
    streaming flush) get those rows of it (its ``select``); rows of
    several get gathered into a new sequence, and their entries move to
    it.

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
        self._entries: "OrderedDict[bytes, tuple[Any, int]]" = OrderedDict()
        # Per sequence the entries point into: [how many do, its rows].
        self._held: dict[int, list] = {}
        self._rows = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get_or_prepare(
        self,
        detector,
        channel: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> Any:
        """Serve ``detector.prepare(channel, noise_var)`` with coherence reuse.

        A hit charges nothing to ``counter`` — the amortisation being
        measured; a miss prepares the channel as a one-channel block
        (charging its FLOPs) and caches it.
        """
        channel = np.asarray(channel)
        prepared, row = self._entry(
            context_key(channel, noise_var),
            lambda: (detector.prepare_many(channel[None], noise_var, counter=counter), 0),
        )
        return prepared[row]

    def get_or_prepare_block(
        self,
        detector,
        channels: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ):
        """Serve a whole ``(S, Nr, Nt)`` coherence block: a sequence
        indexable by subcarrier.

        Cache misses are deduplicated and prepared in one
        ``detector.prepare_many`` call, then the block replays the exact
        per-subcarrier LRU bookkeeping, so hit/miss/eviction statistics
        and charged FLOPs are identical to calling :meth:`get_or_prepare`
        once per subcarrier.
        """
        channels = np.asarray(channels)
        keys = block_context_keys(channels, noise_var)
        fresh: dict[bytes, int] = {}
        for sc, key in enumerate(keys):
            if key not in self._entries and key not in fresh:
                fresh[key] = sc
        prepared = None
        if fresh or not keys:
            # An empty batch is the detector's own empty sequence.
            prepared = detector.prepare_many(
                channels[list(fresh.values())], noise_var, counter=counter
            )
            fresh = {key: (prepared, row) for row, key in enumerate(fresh)}
        pairs = [
            # A duplicate key whose first insertion was already evicted
            # (cache smaller than the block) is re-prepared, exactly as
            # the serial loop would.
            self._entry(
                key,
                lambda: fresh.pop(key, None)
                or (detector.prepare_many(channels[sc : sc + 1], noise_var, counter=counter), 0),
            )
            for sc, key in enumerate(keys)
        ]
        first = pairs[0][0] if pairs else prepared
        if any(prepared is not first for prepared, _ in pairs):
            # Rows of several sequences: gathered into one, which their
            # entries then point into.
            gathered = _gather(pairs)
            for sc, key in enumerate(keys):
                if key in self._entries:
                    self._point(key, (gathered, sc))
        else:
            rows = [row for _, row in pairs]
            select = getattr(first, "select", lambda rows: [first[row] for row in rows])
            gathered = first if rows == list(range(len(first))) else select(rows)
        self._compact(len(pairs))
        return gathered

    def _entry(self, key: bytes, prepare) -> "tuple[Any, int]":
        """The ``(sequence, row)`` cached under ``key``, or ``prepare()``'s,
        cached, on a miss — with the LRU bookkeeping of one lookup."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = prepare()
        self._point(key, entry)
        if len(self._entries) > self.max_entries:
            self._release(self._entries.popitem(last=False)[1])
            self.evictions += 1
        return entry

    def _point(self, key: bytes, entry: "tuple[Any, int]") -> None:
        """Point ``key`` at ``entry``, counting the rows held."""
        if key in self._entries:
            self._release(self._entries[key])
        self._entries[key] = entry
        held = self._held.setdefault(id(entry[0]), [0, len(entry[0])])
        self._rows += held[1] if held[0] == 0 else 0
        held[0] += 1

    def _release(self, entry: "tuple[Any, int]") -> None:
        held = self._held[id(entry[0])]
        held[0] -= 1
        if held[0] == 0:
            del self._held[id(entry[0])]
            self._rows -= held[1]

    def _compact(self, batch: int) -> None:
        """Keep the rows of the sequences the entries point into within
        ``max_entries`` plus one ``batch``.

        A sequence lives while any entry points into it, so evictions and
        moves can leave a few entries pinning a mostly dead one.  Past
        the bound, every entry is gathered into one new sequence with no
        dead row.
        """
        if self._rows <= self.max_entries + batch:
            return
        keys = list(self._entries)
        compact = _gather(list(self._entries.values()))
        for row, key in enumerate(keys):
            self._point(key, (compact, row))

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all contexts (e.g. on a coherence-interval boundary)."""
        self._entries.clear()
        self._held.clear()
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

