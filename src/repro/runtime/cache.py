"""Channel-coherence-aware context cache.

§4 of the paper amortises pre-processing (QR, error-probability model,
position-vector upload) over the coherence time of the channel: the same
context serves every OFDM symbol — and every retransmission — until the
channel changes.  The link layer expresses that coherence implicitly by
handing the stack *identical channel matrices* (a testbed trace cycling
its frames, a static packet channel); the cache recovers the amortisation
by content-addressing contexts on the channel bytes, with no explicit
coherence bookkeeping required from the caller.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
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
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
        }

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
    """LRU cache of prepared channel contexts.

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
        distinct noise operating points probed concurrently.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries <= 0:
            raise ConfigurationError("cache needs at least one entry")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[bytes, Any] = OrderedDict()
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
        measured; a miss runs ``prepare`` (charging its FLOPs) and caches
        the context.
        """
        key = context_key(channel, noise_var)
        try:
            context = self._entries[key]
        except KeyError:
            self.misses += 1
            context = detector.prepare(channel, noise_var, counter=counter)
            self._entries[key] = context
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return context

    def get_or_prepare_block(
        self,
        detector,
        channels: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> list:
        """Serve a whole ``(S, Nr, Nt)`` coherence block of contexts.

        Cache misses are deduplicated and prepared in one
        ``detector.prepare_many`` call — the stacked-QR fast path — then
        the block replays the exact per-subcarrier LRU bookkeeping, so
        hit/miss/eviction statistics and charged FLOPs are identical to
        calling :meth:`get_or_prepare` once per subcarrier.
        """
        channels = np.asarray(channels)
        keys = block_context_keys(channels, noise_var)
        fresh_slots: "OrderedDict[bytes, int]" = OrderedDict()
        for sc, key in enumerate(keys):
            if key not in self._entries and key not in fresh_slots:
                fresh_slots[key] = sc
        fresh: dict[bytes, Any] = {}
        if fresh_slots:
            prepared = detector.prepare_many(
                channels[list(fresh_slots.values())], noise_var,
                counter=counter,
            )
            fresh = dict(zip(fresh_slots, prepared))
        contexts = []
        for key, channel_index in zip(keys, range(channels.shape[0])):
            try:
                context = self._entries[key]
            except KeyError:
                self.misses += 1
                context = fresh.pop(key, None)
                if context is None:
                    # A duplicate key whose first insertion was already
                    # evicted (cache smaller than the block): re-prepare,
                    # exactly as the serial loop would.
                    context = detector.prepare(
                        channels[channel_index], noise_var, counter=counter
                    )
                self._entries[key] = context
                if len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            contexts.append(context)
        return contexts

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all contexts (e.g. on a coherence-interval boundary)."""
        self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        """Lifetime counters plus current occupancy as a snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._entries),
        )
