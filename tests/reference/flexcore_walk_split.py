"""Frozen reference: the split-real level loop as it allocated.

This is ``FlexCoreDetector._walk`` (and its exact-ordering lookup) as it
stood before the core was rebuilt to work inside a persistent workspace
in half-grid units: grid units throughout, a fresh ``(G, F, 2 Nt, P)``
``symbols`` slab per call and some twenty fresh temporaries per level.
It is kept *as an oracle, not a second implementation*: nothing under
``src/`` imports it, it is never optimised, and the equivalence suite
pins the production core to it bit for bit — ``symbols`` (once doubled
back into grid units), ``ped``, ``dead`` and the FLOP charges.

It takes a production detector only for its constellation and the plan
the production core walks.
"""

from __future__ import annotations

import numpy as np


def walk(detector, planes, plan, counter, use_exact):
    """``(symbols, ped, dead)`` of a ``(G, F, Nt, 2)`` block in grid
    units: picks ``(G, F, 2 Nt, P)`` in grid units, distances and the
    deactivation mask ``(G, F, P)``."""
    group, frames, num_streams, _ = planes.shape
    paths = plan.paths
    side = detector.system.constellation.side
    edge = float(side - 1)
    clamp = float(max(side - 2, 0))
    symbols = np.empty((group, frames, 2 * num_streams, paths), dtype=np.float64)
    ped = np.zeros((group, frames, paths), dtype=np.float64)
    dead = np.zeros((group, frames, 2, paths), dtype=np.bool_)
    for level in range(num_streams - 1, -1, -1):
        decided = 2 * level + 2
        z = np.matmul(
            plan.rows[:, None, level, :, decided:],
            symbols[:, :, decided:, :],
        )
        z += planes[:, :, level, :, None]
        if use_exact:
            picked = exact_pick(detector, z, plan.positions[level])
        else:
            centre = np.round(z * 0.5)
            centre *= 2.0
            centre = np.clip(centre, -clamp, clamp)
            within = z - centre
            sign = (within >= 0).astype(np.float64)
            sign *= 2.0
            sign -= 1.0
            within = np.abs(within)
            swap = (within[:, :, 1] > within[:, :, 0]).astype(np.float64)
            step = plan.swap_delta[level].astype(np.float64) * swap[:, :, None, :]
            step += plan.offsets[level].astype(np.float64)
            step *= sign
            step += centre
            picked = np.clip(step, -edge, edge)
            dead |= picked != step
        symbols[:, :, decided - 2 : decided, :] = picked
        z -= picked
        z *= z
        ped += plan.weights[:, level][:, None, None] * (z[:, :, 0] + z[:, :, 1])
        elements = group * frames * paths
        counter.add_complex_mults(elements * (num_streams - 1 - level))
        counter.add_real_mults(elements * 5)
    dead = dead[:, :, 0] | dead[:, :, 1]
    ped[dead] = np.inf
    return symbols, ped, dead


def exact_pick(detector, z, ranks):
    """Exhaustive k-th-closest grid point per element."""
    grid = detector.system.constellation.grid_points
    distances = (z[:, :, 0, :, None] - grid[0]) ** 2 + (
        z[:, :, 1, :, None] - grid[1]
    ) ** 2
    order = np.argsort(distances, axis=-1)
    ranks = np.broadcast_to(ranks, order.shape[:3])
    kth = np.take_along_axis(order, ranks[..., None] - 1, axis=-1)[..., 0]
    return np.stack([grid[0][kth], grid[1][kth]], axis=2)
