"""Coded MU-MIMO uplink Monte-Carlo simulation.

Per packet: every user encodes (802.11 convolutional code + puncturing +
per-OFDM-symbol interleaving), maps to QAM, all users transmit
concurrently over a static frequency-selective channel, the AP detects
per subcarrier with the scheme under test, and each user's packet is
Viterbi-decoded and checked.  PER / BER / throughput come out.

The detector's two-phase API matters here: ``prepare`` runs once per
(subcarrier, packet) — the paper's per-channel pre-processing — while
``detect_prepared`` runs over the packet's OFDM symbols.
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
from repro.mimo.model import apply_channel, noise_variance_for_snr_db
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


def _encode_user(
    config: LinkConfig,
    interleaver: BlockInterleaver,
    info_bits: np.ndarray,
) -> np.ndarray:
    coded = config.code.encode(info_bits)
    punctured = config.puncturer.puncture(coded)
    return interleaver.interleave(punctured)


def _decode_user_batch(
    config: LinkConfig,
    interleaver: BlockInterleaver,
    decoder: ViterbiDecoder,
    coded_bits: np.ndarray,
) -> np.ndarray:
    """Hard-input decode for a ``(users, coded)`` batch."""
    deinterleaved = interleaver.deinterleave(coded_bits)
    soft = []
    for row in range(deinterleaved.shape[0]):
        llrs = 1.0 - 2.0 * deinterleaved[row].astype(np.float64)
        soft.append(config.puncturer.depuncture(llrs))
    return decoder.decode_soft_batch(np.asarray(soft))


def _decode_user_batch_soft(
    config: LinkConfig,
    interleaver: BlockInterleaver,
    decoder: ViterbiDecoder,
    llrs: np.ndarray,
) -> np.ndarray:
    """Soft-input decode for a ``(users, coded)`` LLR batch."""
    deinterleaved = interleaver.deinterleave(llrs)
    rows = [
        config.puncturer.depuncture(deinterleaved[row])
        for row in range(deinterleaved.shape[0])
    ]
    return decoder.decode_soft_batch(np.asarray(rows))


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
    """Run ``num_packets`` coded packets through the link.

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
    num_sc = config.subcarriers_used
    num_sym = config.ofdm_symbols_per_packet
    bits_per_symbol = constellation.bits_per_symbol
    noise_var = noise_variance_for_snr_db(snr_db)

    interleaver = BlockInterleaver(config.interleaver_block, bits_per_symbol)
    decoder = ViterbiDecoder(config.code)
    info_bits = config.info_bits_per_packet

    user_packet_errors = 0
    bit_errors = 0
    vector_errors = 0
    active_paths_sum = 0.0
    active_paths_samples = 0
    contexts_prepared = 0
    context_cache_hits = 0
    ledger = None

    for packet in range(num_packets):
        channels = np.asarray(channel_sampler(packet, generator))
        if channels.shape != (num_sc, system.num_rx_antennas, num_users):
            raise LinkSimulationError(
                f"channel sampler returned {channels.shape}, expected "
                f"{(num_sc, system.num_rx_antennas, num_users)}"
            )
        # --- transmit side ------------------------------------------------
        tx_info = generator.integers(0, 2, size=(num_users, info_bits)).astype(
            np.uint8
        )
        tx_coded = np.stack(
            [
                _encode_user(config, interleaver, tx_info[user])
                for user in range(num_users)
            ]
        )  # (users, coded_bits)
        # Symbol grid: user bit stream -> (symbols, subcarriers) indices.
        tx_indices = np.stack(
            [
                constellation.bits_to_indices(tx_coded[user]).reshape(
                    num_sym, num_sc
                )
                for user in range(num_users)
            ],
            axis=2,
        )  # (symbols, subcarriers, users)
        tx_symbols = constellation.points[tx_indices]

        # --- channel + detection, batched over subcarriers -----------------
        # Noise is still drawn subcarrier-by-subcarrier so the RNG stream
        # (and therefore every seeded result) matches the historical
        # per-vector loop exactly.
        received_grid = np.empty(
            (num_sc, num_sym, system.num_rx_antennas), dtype=np.complex128
        )
        for sc in range(num_sc):
            received_grid[sc] = apply_channel(
                channels[sc], tx_symbols[:, sc, :], noise_var, generator
            )
        batch = engine.detect_batch(
            channels,
            received_grid,
            noise_var,
            counter=counter,
            use_soft=use_soft,
        )
        rx_indices = batch.indices.transpose(1, 0, 2)  # (sym, sc, users)
        rx_llrs = batch.llrs.transpose(1, 0, 2) if use_soft else None
        for sc_metadata in batch.per_subcarrier_metadata:
            if "active_paths" in sc_metadata:
                active_paths_sum += sc_metadata["active_paths"]
                active_paths_samples += 1
        # The batch's cache movement: one CacheStats snapshot from a
        # batch stack, a {cell_id: CacheStats} mapping from a farm.
        cache_delta = batch.stats["cache"]
        if isinstance(cache_delta, dict):
            contexts_prepared += sum(d.misses for d in cache_delta.values())
            context_cache_hits += sum(d.hits for d in cache_delta.values())
        else:
            contexts_prepared += cache_delta.misses
            context_cache_hits += cache_delta.hits
        if "ledger" in batch.stats:
            if ledger is None:
                ledger = MetricsRegistry()
            ledger.merge_dict(batch.stats["ledger"])
        vector_errors += int(
            np.count_nonzero((rx_indices != tx_indices).any(axis=2))
        )

        # --- receive side ---------------------------------------------------
        if use_soft:
            per_user_llrs = np.stack(
                [
                    rx_llrs[
                        :,
                        :,
                        user * bits_per_symbol : (user + 1) * bits_per_symbol,
                    ].reshape(-1)
                    for user in range(num_users)
                ]
            )
            decoded = _decode_user_batch_soft(
                config, interleaver, decoder, per_user_llrs
            )
        else:
            rx_coded = np.stack(
                [
                    constellation.indices_to_bits(
                        rx_indices[:, :, user].reshape(-1)
                    )
                    for user in range(num_users)
                ]
            )
            decoded = _decode_user_batch(
                config, interleaver, decoder, rx_coded
            )
        errors_per_user = (decoded != tx_info).sum(axis=1)
        bit_errors += int(errors_per_user.sum())
        user_packet_errors += int(np.count_nonzero(errors_per_user))

    metadata = {
        "runtime": {
            "backend": engine.backend.name,
            "contexts_prepared": contexts_prepared,
            "context_cache_hits": context_cache_hits,
        }
    }
    if ledger is not None:
        # Streaming stacks report their slot-deadline accounting per
        # batch; surface the run's folded summary (hit-rate, latencies,
        # flush count) and the ledger it came from, for callers that
        # fold several runs.
        metadata["runtime"]["scheduler"] = scheduler_summary(ledger)
        metadata["runtime"]["ledger"] = ledger.to_dict()
    if active_paths_samples:
        metadata["average_active_paths"] = (
            active_paths_sum / active_paths_samples
        )
    return LinkResult(
        packets_simulated=num_packets,
        user_packets=num_packets * num_users,
        user_packet_errors=user_packet_errors,
        bit_errors=bit_errors,
        bits_simulated=num_packets * num_users * info_bits,
        vector_errors=vector_errors,
        vectors_simulated=num_packets * num_sc * num_sym,
        snr_db=snr_db,
        metadata=metadata,
    )
