"""Fixed Complexity Sphere Decoder (FCSD, Barbero & Thompson [4]).

The state-of-the-art parallel baseline the paper compares against: the top
``L`` tree levels are *fully expanded* (all ``|Q|**L`` combinations) and
every remaining level is decided greedily by slicing.  All ``|Q|**L``
paths are independent, so the scheme parallelises — but only in units of
``|Q|**L`` processing elements, cannot focus work on promising paths, and
cannot adapt to channel conditions (§2's three drawbacks).

§2's argument is that FCSD is FlexCore's walk over a path set that ignores
the channel, and so it runs here: a :class:`~repro.flexcore.detector.
FlexCoreDetector` whose prepare step skips the §3.1.1 search and whose
plan marks the top ``L`` levels *absolute* — there each path takes the
symbol the plan holds for it, below them rank 1, the slicer's pick.  The
path set is the detector's, held once and read by every channel's plan
through a zero stride, so FCSD has FlexCore's block kernel, native lane,
residency and workspace.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.utils.xp import resolve_array_module


class FcsdDetector(FlexCoreDetector):
    """FCSD with ``L`` fully-expanded levels.

    Parameters
    ----------
    num_expanded:
        ``L``; the detector evaluates ``num_paths = |Q|**L`` parallel paths.
    qr_method:
        ``"fcsd"`` (Barbero-Thompson ordering, default) or ``"sorted"``
        (Wübben); §5.1 tries both and keeps the better.
    """

    name = "fcsd"

    def __init__(self, system: MimoSystem, num_expanded: int = 1, qr_method: str = "fcsd"):
        num_streams, constellation = system.num_streams, system.constellation
        if not 0 <= num_expanded <= num_streams:
            raise ConfigurationError(f"num_expanded must lie in [0, {num_streams}]")
        if qr_method not in ("fcsd", "sorted"):
            raise ConfigurationError(f"unknown qr_method {qr_method!r}")
        super().__init__(system, constellation.order**num_expanded, qr_method=qr_method)
        self.num_expanded = expanded = int(num_expanded)
        # The path set, level-major as a plan holds it: rank 1 everywhere
        # but at level Nt - 1 - c, where path p holds the symbol of p's
        # c-th most significant digit in base |Q|, as grid coordinates.
        ranks = np.ones((num_streams, 1, 1, self.num_paths), dtype=np.int64)
        self._offsets, self._swap_delta = self.ordering.path_offsets(
            ranks, resolve_array_module(None)
        )
        digits = np.indices((constellation.order,) * expanded).reshape(expanded, self.num_paths)
        grid = np.stack(constellation.index_to_grid(digits), axis=1)
        self._offsets[num_streams - expanded :, 0, 0] = grid[::-1]

    def _factor(self, channels, noise_var, counter):
        return super()._factor(channels, noise_var, counter, self.num_expanded)

    def _search(self, diag, noise_var, counter) -> tuple:
        """No search: every channel walks the whole path set."""
        return None, np.full(diag.shape[0], self.num_paths, dtype=np.int64)

    def _path_plan(self, block, members, paths: int, xp) -> dict:
        """The path set's first ``paths``, the same for every row."""
        shape = (self.system.num_streams, len(members), 1, 2, paths)
        return dict(
            offsets=np.broadcast_to(self._offsets[..., :paths], shape),
            swap_delta=np.broadcast_to(self._swap_delta[..., :paths], shape),
            positions=None,
            absolute=self.num_expanded,
        )
