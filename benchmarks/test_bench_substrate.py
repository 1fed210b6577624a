"""Substrate kernel benches: the coding machinery and QR under the
link-level experiments (PER Monte-Carlo cost is dominated by these)."""

import numpy as np
import pytest

from repro.channel.fading import rayleigh_channel
from repro.coding.convolutional import ConvolutionalCode
from repro.coding.interleaver import BlockInterleaver
from repro.coding.viterbi import ViterbiDecoder
from repro.flexcore.detector import FlexCoreDetector
from repro.link.channels import rayleigh_sampler
from repro.link.config import LinkConfig
from repro.link.simulation import simulate_link
from repro.mimo.qr import sorted_qr
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation


@pytest.fixture(scope="module")
def coded_batch():
    code = ConvolutionalCode()
    rng = np.random.default_rng(1)
    info = rng.integers(0, 2, (12, 282)).astype(np.uint8)
    coded = np.stack([code.encode(info[row]) for row in range(12)])
    llrs = 1.0 - 2.0 * coded.astype(float)
    llrs += 0.5 * rng.standard_normal(llrs.shape)
    return code, llrs


def test_convolutional_encode(benchmark):
    code = ConvolutionalCode()
    bits = np.random.default_rng(0).integers(0, 2, 1152).astype(np.uint8)
    coded = benchmark(code.encode, bits)
    assert coded.size == (1152 + 6) * 2


def test_viterbi_batch_decode(benchmark, coded_batch):
    code, llrs = coded_batch
    decoder = ViterbiDecoder(code)
    decoded = benchmark.pedantic(
        decoder.decode_soft_batch, args=(llrs,), rounds=3, iterations=1
    )
    assert decoded.shape == (12, 282)


def test_interleaver_roundtrip(benchmark):
    interleaver = BlockInterleaver(288, 6)
    data = np.random.default_rng(0).integers(0, 2, 288 * 16)

    def roundtrip():
        return interleaver.deinterleave(interleaver.interleave(data))

    out = benchmark(roundtrip)
    assert np.array_equal(out, data)


def test_sorted_qr_12x12(benchmark):
    channel = rayleigh_channel(12, 12, rng=4)
    qr = benchmark(sorted_qr, channel)
    assert qr.r.shape == (12, 12)


def test_coded_packet_end_to_end(benchmark):
    """One full coded packet through the 8x8 16-QAM link."""
    system = MimoSystem(8, 8, QamConstellation(16))
    config = LinkConfig(
        system=system, ofdm_symbols_per_packet=2, num_subcarriers=12
    )
    detector = FlexCoreDetector(system, num_paths=32)
    result = benchmark.pedantic(
        simulate_link,
        args=(config, detector, 16.0, 1, rayleigh_sampler(config)),
        kwargs={"rng": 0},
        rounds=3,
        iterations=1,
    )
    assert result.packets_simulated == 1
