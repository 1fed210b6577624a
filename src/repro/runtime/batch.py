"""Workload containers for the batched uplink runtime.

The runtime's unit of work is the *uplink batch*: every data subcarrier
of one coherence interval, each carrying the same number of received
vectors (OFDM symbols, a.k.a. frames).  FlexCore's "nearly embarrassingly
parallel" claim (§3.2, §5.2) is exactly that these ``subcarriers x
frames`` detection problems are independent — the batch is the shape the
runtime caches and vectorises over, and the boundary where hostile
input (wrong shapes, non-finite values) is turned away.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DimensionError


@dataclass(frozen=True)
class UplinkBatch:
    """A ``(subcarriers x frames)`` uplink detection workload.

    Attributes
    ----------
    channels:
        ``(S, Nr, Nt)`` complex — one channel matrix per subcarrier,
        static over the batch (the §5 coherence assumption).
    received:
        ``(S, F, Nr)`` complex — ``F`` received vectors per subcarrier.
    noise_var:
        Per-receive-antenna noise variance shared by the batch.
    keys:
        Optional ``(S,)`` :func:`~repro.runtime.cache.block_context_keys`
        of ``channels`` under ``noise_var``, made where they entered (a
        streaming flush hands over its micro-batcher's), so the cache
        does not make them again.
    """

    channels: np.ndarray
    received: np.ndarray
    noise_var: float
    keys: "list[bytes] | None" = None

    def __post_init__(self) -> None:
        if self.noise_var is None:
            raise DimensionError(
                "UplinkBatch needs a noise_var (did you forget the third "
                "argument to detect_batch?)"
            )
        channels = np.asarray(self.channels)
        received = np.asarray(self.received)
        if channels.ndim != 3:
            raise DimensionError(
                f"batch channels must be (S, Nr, Nt), got {channels.shape}"
            )
        if received.ndim == 2:
            # One frame per subcarrier: promote to (S, 1, Nr).
            received = received[:, None, :]
        if received.ndim != 3:
            raise DimensionError(
                f"batch received must be (S, F, Nr), got {received.shape}"
            )
        if received.shape[0] != channels.shape[0]:
            raise DimensionError(
                f"{received.shape[0]} received blocks for "
                f"{channels.shape[0]} subcarrier channels"
            )
        if received.shape[2] != channels.shape[1]:
            raise DimensionError(
                f"received vectors have {received.shape[2]} antennas, "
                f"channels have {channels.shape[1]}"
            )
        if self.keys is not None and len(self.keys) != channels.shape[0]:
            raise DimensionError(f"{len(self.keys)} context keys for {channels.shape[0]} channels")
        noise_var = float(self.noise_var)
        # One check for every route: a NaN that got past here would come
        # back as all-NaN LLRs, or as an IndexError from inside the walk.
        for name, value in (
            ("noise_var", noise_var),
            ("channels", channels),
            ("received", received),
        ):
            if not np.isfinite(value).all():
                raise ConfigurationError(
                    f"UplinkBatch {name} must be finite (no NaN or inf)"
                )
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "received", received)
        object.__setattr__(self, "noise_var", noise_var)

    @property
    def num_subcarriers(self) -> int:
        return self.channels.shape[0]

    @property
    def num_frames(self) -> int:
        return self.received.shape[1]

    @property
    def num_rx_antennas(self) -> int:
        return self.channels.shape[1]

    @property
    def num_streams(self) -> int:
        return self.channels.shape[2]


@dataclass
class BatchDetectionResult:
    """Stacked detection output for one :class:`UplinkBatch`.

    Attributes
    ----------
    indices:
        ``(S, F, Nt)`` hard symbol-index decisions, original stream order.
    llrs:
        ``(S, F, Nt * bits_per_symbol)`` max-log LLRs when the batch was
        detected softly; ``None`` otherwise.
    per_subcarrier_metadata:
        The scheme-specific metadata dict each subcarrier's
        ``detect_prepared`` produced, in subcarrier order.
    stats:
        Runtime accounting (a plain ``dict``): backend name, whether the
        stacked route ran, and the batch's cache movement under
        ``stats["cache"]`` — a :class:`~repro.runtime.cache.CacheStats`
        snapshot (a ``{cell_id: CacheStats}`` mapping when the workload
        was sharded across a cell farm, which also adds the batch's
        ``"scheduler"`` summary and the ``"ledger"`` payload it was
        rendered from, for callers that fold several batches).
    prepared:
        The prepared sequence the service detected from, one context per
        subcarrier (FlexCore's stacked block), or ``None`` when the
        uncached per-subcarrier route prepared each channel inline.
    """

    indices: np.ndarray
    llrs: np.ndarray | None = None
    per_subcarrier_metadata: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    prepared: "Sequence | None" = field(default=None, repr=False)
