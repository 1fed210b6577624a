"""Coded MU-MIMO uplink Monte-Carlo simulation.

Every user encodes (802.11 convolutional code + puncturing +
per-OFDM-symbol interleaving) and maps to QAM; all users transmit
concurrently over a static frequency-selective channel; the AP detects
per subcarrier with the scheme under test; each user's packet is
Viterbi-decoded and checked.  PER / BER / throughput come out.

A run is one batch in phases: draw every packet (channel, bits, noise,
in packet order: the RNG order seeded results rest on), encode every
(packet, user) stream in one call, detect the packets in one
``detect_batch`` call, stacked along the subcarrier axis, and
Viterbi-decode every stream in one ``decode_soft_batch`` call.  The
stack's context cache sees one lookup per (packet, subcarrier) in order,
so ``prepare`` — the paper's per-channel pre-processing — runs only on a
miss, and ``detect_prepared`` runs over that subcarrier's OFDM symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import StackConfig, UplinkStack, build_stack
from repro.coding import BlockInterleaver, ViterbiDecoder
from repro.detectors.base import Detector
from repro.errors import LinkSimulationError
from repro.link.config import LinkConfig
from repro.link.throughput import network_throughput_bps
from repro.mimo.model import channel_noise, noise_variance_for_snr_db
from repro.obs import MetricsRegistry, scheduler_summary
from repro.utils.flops import NULL_COUNTER, FlopCounter
from repro.utils.rng import as_rng


@dataclass
class LinkResult:
    """Outcome of a link simulation."""

    packets_simulated: int
    user_packets: int
    user_packet_errors: int
    bit_errors: int
    bits_simulated: int
    vector_errors: int
    vectors_simulated: int
    snr_db: float
    metadata: dict = field(default_factory=dict)

    @property
    def per(self) -> float:
        """User-level packet error rate."""
        if self.user_packets == 0:
            return 0.0
        return self.user_packet_errors / self.user_packets

    @property
    def ber(self) -> float:
        if self.bits_simulated == 0:
            return 0.0
        return self.bit_errors / self.bits_simulated

    @property
    def vector_error_rate(self) -> float:
        if self.vectors_simulated == 0:
            return 0.0
        return self.vector_errors / self.vectors_simulated

    def network_throughput_bps(self, config: LinkConfig) -> float:
        """Aggregate goodput: ``num_users x rate x (1 - PER)``."""
        return network_throughput_bps(
            self.per, config.system.num_streams, config.user_phy_rate_bps
        )


def _decode(
    config: LinkConfig, interleaver: BlockInterleaver, llrs: np.ndarray
) -> np.ndarray:
    """Deinterleave, depuncture and decode a ``(streams, coded)`` LLR batch."""
    depunctured = config.puncturer.depuncture(interleaver.deinterleave(llrs))
    width = config.code.coded_length(config.info_bits_per_packet)
    return ViterbiDecoder(config.code).decode_soft_batch(depunctured.reshape(len(llrs), width))


def simulate_link(
    config: LinkConfig,
    detector: Detector,
    snr_db: float,
    num_packets: int,
    channel_sampler,
    rng=None,
    counter: FlopCounter = NULL_COUNTER,
    use_soft: bool = False,
    engine: UplinkStack | None = None,
    stack_config=None,
) -> LinkResult:
    """Run ``num_packets`` coded packets through the link as one batch.

    Three straight-line phases: one loop draws every packet's channel,
    info bits and noise in the per-packet RNG order (so seeded results
    do not depend on the batching); one ``engine.detect_batch`` call
    detects the ``(packets x subcarriers)`` stack; one
    ``decode_soft_batch`` call decodes the ``(packets x users)`` streams.

    Parameters
    ----------
    config:
        Link parameters.
    detector:
        Any :class:`~repro.detectors.base.Detector`.
    snr_db:
        Per-user receive SNR.
    num_packets:
        Packets (joint transmissions of all users) to simulate.
    channel_sampler:
        Callable ``(packet_index, rng) -> (subcarriers, Nr, Nt)`` complex
        array — the per-subcarrier channel for that packet.  Adapters for
        i.i.d. Rayleigh and testbed traces live in
        :mod:`repro.link.channels`.
    rng:
        Seed or generator.
    counter:
        Optional FLOP counter charged with all detection work.
    use_soft:
        Feed the Viterbi decoder per-bit LLRs instead of hard decisions;
        requires a detector exposing ``detect_soft_prepared`` (e.g.
        :class:`repro.flexcore.soft.SoftFlexCoreDetector`).
    engine:
        Optional pre-built :class:`~repro.api.UplinkStack` wrapping
        ``detector`` (e.g. on the array backend, or with a cache shared
        across SNR points).  By default a fresh serial-backend stack is built for
        the call through :func:`repro.api.build_stack`, whose context
        cache amortises ``prepare`` across the packets of the run — the
        §4 coherence amortisation — whenever the sampler replays channel
        matrices (static packets, cycling testbed traces).
    stack_config:
        Optional :class:`~repro.api.StackConfig` describing the runtime
        stack to build around ``detector`` when no ``engine`` is given
        (its own detector spec, if any, is ignored in favour of the
        live instance).
    """
    if engine is None:
        # Build the stack here, own it here: re-enter with the stack as
        # the engine so the context manager releases backend resources
        # when the run finishes.
        with build_stack(
            stack_config if stack_config is not None else StackConfig(),
            detector=detector,
        ) as stack:
            return simulate_link(
                config,
                detector,
                snr_db,
                num_packets,
                channel_sampler,
                rng=rng,
                counter=counter,
                use_soft=use_soft,
                engine=stack,
            )
    elif engine.detector is not detector:
        raise LinkSimulationError(
            "engine wraps a different detector instance than the one "
            "passed to simulate_link"
        )
    if use_soft and not engine.supports_soft:
        raise LinkSimulationError(
            f"{detector.name} does not produce soft output"
        )
    generator = as_rng(rng)
    system = config.system
    constellation = system.constellation
    num_users = system.num_streams
    num_rx = system.num_rx_antennas
    num_sc = config.subcarriers_used
    num_sym = config.ofdm_symbols_per_packet
    bits_per_symbol = constellation.bits_per_symbol
    noise_var = noise_variance_for_snr_db(snr_db)
    interleaver = BlockInterleaver(config.interleaver_block, bits_per_symbol)
    info_bits = config.info_bits_per_packet

    # --- draw: packet by packet, the RNG order seeded results rest on ------
    channels = np.empty((num_packets, num_sc, num_rx, num_users), dtype=np.complex128)
    tx_info = np.empty((num_packets, num_users, info_bits), dtype=np.uint8)
    received = np.empty((num_packets, num_sc, num_sym, num_rx), dtype=np.complex128)
    for packet in range(num_packets):
        drawn = np.asarray(channel_sampler(packet, generator))
        if drawn.shape != channels.shape[1:]:
            raise LinkSimulationError(
                f"channel sampler returned {drawn.shape}, expected "
                f"{channels.shape[1:]}"
            )
        channels[packet] = drawn
        tx_info[packet] = generator.integers(0, 2, size=(num_users, info_bits))
        # Noise is drawn one subcarrier at a time: that draw order, too,
        # is part of every seeded result.  The signal is added below.
        for sc in range(num_sc):
            received[packet, sc] = channel_noise((num_sym, num_rx), noise_var, generator)

    # --- transmit: every (packet, user) stream encoded in one call --------
    coded = interleaver.interleave(
        config.puncturer.puncture(config.code.encode(tx_info.reshape(-1, info_bits)))
    )  # packet, then user, then coded bit
    indices = constellation.bits_to_indices(coded).reshape(num_packets, num_users, num_sym, num_sc)
    tx_indices = indices.transpose(0, 3, 2, 1)
    tx_symbols = constellation.points[indices.transpose(0, 2, 3, 1)]
    for packet in range(num_packets):
        for sc in range(num_sc):
            # y = H s + n, each subcarrier's product as apply_channel forms it.
            received[packet, sc] += tx_symbols[packet, :, sc] @ channels[packet, sc].T

    # --- detect: the packets stacked along the subcarrier axis -----------
    batch = engine.detect_batch(
        channels.reshape(-1, num_rx, num_users),
        received.reshape(-1, num_sym, num_rx),
        noise_var,
        counter=counter,
        use_soft=use_soft,
    )
    wrong = batch.indices != tx_indices.reshape(batch.indices.shape)
    # The batch's cache movement: one CacheStats snapshot from a batch
    # stack, a {cell_id: CacheStats} mapping from a farm.
    cache_delta = batch.stats["cache"]
    deltas = cache_delta.values() if isinstance(cache_delta, dict) else [cache_delta]
    metadata = {
        "runtime": {
            "backend": engine.backend.name,
            "contexts_prepared": sum(d.misses for d in deltas),
            "context_cache_hits": sum(d.hits for d in deltas),
        }
    }
    if "ledger" in batch.stats:
        # A streaming stack reports its slot-deadline accounting: surface
        # the run's summary (hit-rate, latencies, flush count) and the
        # ledger it came from, for callers that fold several runs.
        ledger = MetricsRegistry()
        ledger.merge_dict(batch.stats["ledger"])
        metadata["runtime"]["scheduler"] = scheduler_summary(ledger)
        metadata["runtime"]["ledger"] = ledger.to_dict()
    # Summed left to right, subcarrier by subcarrier (np.mean sums
    # pairwise and sum() compensates), so the column keeps its bytes.
    active_paths_sum = 0.0
    active_paths_samples = 0
    for sc_metadata in batch.per_subcarrier_metadata:
        if "active_paths" in sc_metadata:
            active_paths_sum += sc_metadata["active_paths"]
            active_paths_samples += 1
    if active_paths_samples:
        metadata["average_active_paths"] = active_paths_sum / active_paths_samples

    # --- decode: every (packet, user) stream in one Viterbi call ---------
    # Per user, the coded stream runs symbol-major, then subcarrier, then
    # bit; a hard decision enters the decoder as a +-1 LLR.
    if use_soft:
        llrs = batch.llrs.reshape(
            num_packets, num_sc, num_sym, num_users, bits_per_symbol
        ).transpose(0, 3, 2, 1, 4)
    else:
        rx_indices = batch.indices.reshape(
            num_packets, num_sc, num_sym, num_users
        ).transpose(0, 3, 2, 1)
        llrs = 1.0 - 2.0 * constellation.indices_to_bits(rx_indices).astype(np.float64)
    decoded = _decode(
        config, interleaver, llrs.reshape(num_packets * num_users, config.coded_bits_per_packet)
    )
    errors_per_user = (decoded != tx_info.reshape(decoded.shape)).sum(axis=1)
    return LinkResult(
        packets_simulated=num_packets,
        user_packets=num_packets * num_users,
        user_packet_errors=int(np.count_nonzero(errors_per_user)),
        bit_errors=int(errors_per_user.sum()),
        bits_simulated=num_packets * num_users * info_bits,
        vector_errors=int(np.count_nonzero(wrong.any(axis=2))),
        vectors_simulated=num_packets * num_sc * num_sym,
        snr_db=snr_db,
        metadata=metadata,
    )
