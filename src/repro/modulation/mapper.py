"""Random transmit-symbol indices for multi-antenna frames.

Each row is one ``Nt``-element transmit vector ``s`` of the uplink model
``y = Hs + n``, as indices into the constellation; bits <-> symbols is
:class:`~repro.modulation.constellation.QamConstellation`'s job.
"""

from __future__ import annotations

import numpy as np

from repro.modulation.constellation import QamConstellation
from repro.utils.rng import as_rng


def random_symbol_indices(
    num_vectors: int,
    num_streams: int,
    constellation: QamConstellation,
    rng=None,
) -> np.ndarray:
    """Draw uniform random transmit-symbol indices, shape ``(n, Nt)``."""
    generator = as_rng(rng)
    return generator.integers(
        0, constellation.order, size=(num_vectors, num_streams)
    )
