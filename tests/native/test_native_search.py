"""The tree search's entry point refuses what is not its layout.

``repro.native``'s ``tree_search`` hands raw pointers to ``search.c``, so
every shape, dtype, contiguity and size is checked in Python first —
as ``detect_group`` does for the walk — and a refusal is a ``ValueError``
that leaves nothing written.
"""

import numpy as np
import pytest

from repro import native
from repro.flexcore.preprocessing import find_promising_paths_block

PE = np.random.default_rng(0).uniform(0.01, 0.4, size=(5, 4))


@pytest.fixture
def tree_search():
    if native.kernel() is None:
        pytest.skip(f"no native lane here: {native.status()['reason']}")
    return native.kernel().tree_search


def test_the_layout_it_takes(tree_search):
    thresholds = np.array([0.5, np.inf, 0.9, 0.1, np.inf])
    positions, probabilities, tally = tree_search(PE, 12, 4, 2, thresholds)
    assert positions.shape == (5, 12, 4) and probabilities.shape == (5, 12)
    assert tally.shape == (5, 4) and tally.dtype == np.int64
    for c, result in enumerate(find_promising_paths_block(PE, 12, 4, thresholds, 2)):
        count, pushed, peak, stopped = tally[c]
        assert np.array_equal(positions[c, :count], result.position_vectors)
        assert np.array_equal(probabilities[c, :count], result.probabilities)
        assert pushed + 3 == result.real_multiplications  # + Nt - 1 for the root
        assert (peak, stopped) == (result.candidate_peak, result.stopped_early)


@pytest.mark.parametrize(
    "pe",
    [PE.astype(np.float32), PE.T, PE[:, ::2], PE[0], PE[None], PE.tolist(), PE[:, :0]],
    ids=["float32", "transposed", "strided", "1-d", "3-d", "a list", "no levels"],
)
def test_pe_must_be_a_contiguous_float64_block(tree_search, pe):
    with pytest.raises(ValueError, match="not the search's layout"):
        tree_search(pe, 8, 4, 1, None)


@pytest.mark.parametrize(
    "thresholds",
    [np.full(4, 0.5), np.full((5, 1), 0.5), np.full(5, 0.5, dtype=np.float32),
     np.full(10, 0.5)[::2], [0.5] * 5, 0.5],
    ids=["short", "2-d", "float32", "strided", "a list", "a scalar"],
)  # fmt: skip
def test_thresholds_must_be_one_float64_per_channel(tree_search, thresholds):
    with pytest.raises(ValueError, match="not the search's layout"):
        tree_search(PE, 8, 4, 1, thresholds)


@pytest.mark.parametrize("sizes", [(0, 4, 1), (8, 0, 1), (8, 4, 0), (-1, 4, 1)])
def test_counts_must_be_positive(tree_search, sizes):
    with pytest.raises(ValueError, match="not the search's layout"):
        tree_search(PE, *sizes, None)


@pytest.mark.parametrize("sizes", [(8.0, 4, 1), (8, 4.5, 1), (8, 4, None)])
def test_counts_must_be_integers(tree_search, sizes):
    with pytest.raises(TypeError):
        tree_search(PE, *sizes, None)
