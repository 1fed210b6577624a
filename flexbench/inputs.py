"""Seeded inputs and the oracle every output is checked against.

All inputs are a function of ``--seed`` alone and are generated before
any clock starts.  The oracle is the ``BackendSpec("serial")`` stack —
the per-channel loop ROADMAP keeps *as the oracle* — run once over every
distinct block; timed results are compared bit-for-bit afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flexbench.spec import WORKLOADS
from repro.api import BackendSpec, DetectorSpec, StackConfig, build_stack, presets
from repro.channel.fading import rayleigh_channels
from repro.mimo.model import noise_variance_for_snr_db


@dataclass
class Block:
    """One ``(S, F)`` uplink block and the symbols that were sent."""

    channels: np.ndarray  # (S, Nr, Nt)
    received: np.ndarray  # (S, F, Nr)
    sent: np.ndarray  # (S, F, Nt) symbol indices

    @property
    def vectors(self) -> int:
        return self.received.shape[0] * self.received.shape[1]


@dataclass
class Expected:
    """The oracle's answer for one block."""

    indices: np.ndarray
    llrs: "np.ndarray | None"


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def detector_spec(params: dict) -> DetectorSpec:
    """The DetectorSpec a ``flexbench.spec`` workload table names."""
    if "preset" in params:
        return presets.get(params["preset"]).detector
    name, streams, antennas, qam, knobs = params["detector"]
    return DetectorSpec(name, streams, antennas, qam, params=dict(knobs))


def make_blocks(
    system,
    snr_db: float,
    subcarriers: int,
    symbols: int,
    count: int,
    rng: np.random.Generator,
    channels: "np.ndarray | None" = None,
) -> "tuple[list[Block], float]":
    """``count`` blocks of ``y = H s + n``; ``channels`` pins one ``H``
    block for all of them (a coherence interval), else each draws its
    own Rayleigh block."""
    noise_var = noise_variance_for_snr_db(snr_db)
    points = system.constellation.points
    blocks = []
    for _ in range(count):
        block_channels = (
            channels
            if channels is not None
            else rayleigh_channels(
                subcarriers, system.num_rx_antennas, system.num_streams, rng
            )
        )
        sent = rng.integers(
            0,
            system.constellation.order,
            size=(subcarriers, symbols, system.num_streams),
        )
        shape = (subcarriers, symbols, system.num_rx_antennas)
        noise = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        received = np.einsum("srt,sft->sfr", block_channels, points[sent]) + noise
        blocks.append(Block(block_channels, received, sent))
    return blocks, noise_var


def oracle(
    spec: DetectorSpec, blocks: "list[Block]", noise_var: float, use_soft: bool
) -> "list[Expected]":
    config = StackConfig(detector=spec, backend=BackendSpec("serial"))
    with build_stack(config) as stack:
        answers = []
        for block in blocks:
            result = stack.detect_batch(
                block.channels, block.received, noise_var, use_soft=use_soft
            )
            answers.append(Expected(result.indices, result.llrs))
    return answers


def mismatched_vectors(indices, llrs, expected: Expected) -> int:
    """Vectors of one result that differ from the oracle (bit-for-bit)."""
    indices = np.asarray(indices)
    if indices.shape != expected.indices.shape:
        return int(np.prod(expected.indices.shape[:-1]))
    wrong = (indices != expected.indices).any(axis=-1)
    if expected.llrs is not None:
        if llrs is None or np.shape(llrs) != expected.llrs.shape:
            return int(wrong.size)
        wrong |= (np.asarray(llrs) != expected.llrs).any(axis=-1)
    return int(np.count_nonzero(wrong))


def error_rates(system, blocks: "list[Block]", answers: "list[Expected]") -> dict:
    """Detection quality of the (verified) outputs vs what was sent.

    ``ver`` counts vectors with any wrong symbol; ``llr_ber`` counts
    bits whose LLR sign is wrong (positive LLR favours bit 0) — or, on a
    hard workload, bits of the hard decisions.
    """
    constellation = system.constellation
    vectors = vector_errors = bits = bit_errors = 0
    for block, answer in zip(blocks, answers):
        vector_errors += int(
            np.count_nonzero((answer.indices != block.sent).any(axis=-1))
        )
        vectors += block.vectors
        sent_bits = constellation.indices_to_bits(block.sent)
        if answer.llrs is not None:
            decided = (answer.llrs.reshape(-1) < 0).astype(np.uint8)
        else:
            decided = constellation.indices_to_bits(answer.indices)
        bit_errors += int(np.count_nonzero(decided != sent_bits))
        bits += sent_bits.size
    return {"ver": vector_errors / vectors, "llr_ber": bit_errors / bits}
