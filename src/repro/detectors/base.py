"""The detector interface shared by every scheme in the reproduction.

Detection splits into two phases mirroring the paper's architecture
(Fig. 2):

* :meth:`Detector.prepare` runs once per channel realisation (QR
  decompositions, filter matrices, FlexCore pre-processing, ...) and
  returns an opaque *channel context*;
* :meth:`Detector.detect_prepared` maps a batch of received vectors to
  hard symbol-index decisions using that context.

The split matters because the channel is static over a packet (§5): one
``prepare`` amortises over the 48 subcarriers x many OFDM symbols it
serves, exactly like the paper's pre-processing that re-runs only when the
channel changes.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import DimensionError
from repro.mimo.system import MimoSystem
from repro.utils.flops import NULL_COUNTER, FlopCounter


@dataclass
class DetectionResult:
    """Hard decisions, soft output when asked for, and per-batch
    diagnostics.

    Attributes
    ----------
    indices:
        ``(n, Nt)`` detected constellation indices, original stream order.
    metadata:
        Scheme-specific extras (nodes visited, active processing elements,
        per-vector minimum Euclidean distances, ...).
    llrs:
        ``(n, Nt * bits_per_symbol)`` max-log LLRs, stream-major, from a
        soft entry point (``detect_soft_prepared``); ``None`` otherwise.
    """

    indices: np.ndarray
    metadata: dict = field(default_factory=dict)
    llrs: np.ndarray | None = None


class Detector(abc.ABC):
    """Abstract base class for all hard-output MIMO detectors."""

    #: Human-readable scheme name; subclasses override.
    name: str = "detector"

    def __init__(self, system: MimoSystem):
        self.system = system

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def prepare(
        self,
        channel: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> Any:
        """Per-channel work; returns a context for :meth:`detect_prepared`."""

    @abc.abstractmethod
    def detect_prepared(
        self,
        context: Any,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        """Detect a ``(n, Nr)`` batch using a prepared context.

        Batching contract (relied on by
        :class:`repro.runtime.service.DetectionService`):

        * the context is read-only here — a context prepared once may be
          replayed for any number of ``detect_prepared`` calls, in any
          order, across frames and retransmissions of the same channel;
        * contexts are pure functions of ``(channel, noise_var)``, so two
          bit-identical channels at the same noise level may share one
          context (content-addressed caching);
        * output row ``i`` depends only on received row ``i`` — splitting
          a batch and concatenating the results is exact, which makes
          subcarrier/frame sharding safe.
        """

    # ------------------------------------------------------------------
    @property
    def has_block_kernel(self) -> bool:
        """Whether this detector provides a stacked multi-channel kernel.

        Detectors exposing ``detect_block_prepared(contexts, received,
        counter=..., xp=..., store=..., max_paths=...)`` (e.g. FlexCore's
        tensor walk) are routed through it by the runtime's ``array``
        execution backend; everything else falls back to the documented
        per-channel loop.

        ``contexts`` is what :meth:`prepare_many` (or the cache, which
        gathers its rows the same way) returned.  The runtime always
        passes all four keywords, and the same four to a soft detector's
        ``detect_soft_block_prepared(contexts, received, noise_var,
        ...)`` — on FlexCore, both are one call into the same block
        loop, hard or soft by ``noise_var``: ``store`` is the backend's
        :class:`~repro.runtime.residency.ResidentContextStore` or
        ``None``, and ``max_paths`` is the per-call path budget, which
        the kernel applies itself — contexts arrive unclamped.
        """
        return callable(getattr(self, "detect_block_prepared", None))

    def prepare_many(
        self,
        channels: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> Sequence:
        """The ``(C, Nr, Nt)`` channels prepared: a sequence indexable by
        channel, item ``c`` channel ``c``'s context.

        The base implementation is a list of :meth:`prepare` results;
        detectors with a batched prepare path (FlexCore's one stacked
        block) override it.  Either way each item — and the FLOPs
        charged — must be identical to preparing that channel alone.
        """
        channels = np.asarray(channels)
        return [
            self.prepare(channels[c], noise_var, counter=counter)
            for c in range(channels.shape[0])
        ]

    def detect(
        self,
        channel: np.ndarray,
        received: np.ndarray,
        noise_var: float,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        """Convenience single-shot path: prepare then detect."""
        context = self.prepare(channel, noise_var, counter=counter)
        return self.detect_prepared(context, received, counter=counter)

    # ------------------------------------------------------------------
    def _check_channel(self, channel: np.ndarray) -> np.ndarray:
        channel = np.asarray(channel)
        expected = (self.system.num_rx_antennas, self.system.num_streams)
        if channel.shape != expected:
            raise DimensionError(
                f"{self.name}: channel shape {channel.shape} != {expected}"
            )
        return channel

    def _check_received(self, received: np.ndarray) -> np.ndarray:
        received = np.asarray(received)
        if received.ndim == 1:
            received = received[None, :]
        if received.ndim != 2 or received.shape[1] != self.system.num_rx_antennas:
            raise DimensionError(
                f"{self.name}: received shape {received.shape} is not "
                f"(n, {self.system.num_rx_antennas})"
            )
        return received
