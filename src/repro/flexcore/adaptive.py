"""a-FlexCore: channel-adaptive processing-element activation (§5.1).

Plain FlexCore always evaluates ``N_PE`` paths.  a-FlexCore exploits the
pre-processing probabilities further: it activates only the first ``j``
paths whose cumulative ``Pc`` reaches a target mass (0.95 in Fig. 10).
In well-conditioned channels — e.g. far fewer users than AP antennas —
``j`` collapses towards 1 and the complexity approaches a linear
detector's, while in harsh channels all ``N_PE`` elements light up.

The rule is :func:`repro.flexcore.preprocessing.covering_prefix`, read
off the block's search; the SNR-aware budget policy
(:class:`repro.control.policy.SnrAwarePolicy`) applies the same function
to the row of a cell's latest flush.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreDetector
from repro.flexcore.preprocessing import PathSearchBlock, covering_prefix
from repro.mimo.system import MimoSystem


class AdaptiveFlexCoreDetector(FlexCoreDetector):
    """FlexCore with adaptive PE activation (a-FlexCore).

    Parameters
    ----------
    probability_target:
        Cumulative path-probability mass that must be covered by the
        activated processing elements (paper: 0.95).
    """

    name = "a-flexcore"

    def __init__(
        self,
        system: MimoSystem,
        num_paths: int,
        probability_target: float = 0.95,
        **kwargs,
    ):
        super().__init__(system, num_paths, **kwargs)
        if not 0.0 < probability_target <= 1.0:
            raise ConfigurationError(
                "probability_target must lie in (0, 1]"
            )
        self.probability_target = float(probability_target)

    def _active_paths(self, search: PathSearchBlock) -> np.ndarray:
        """The shortest prefix of each channel's paths whose cumulative
        ``Pc`` reaches the target, all of them if none does."""
        return covering_prefix(
            search.probabilities, search.expanded_nodes, self.probability_target
        )

    def _entry(self, paths: int, count, soft: bool) -> dict:
        return {**super()._entry(paths, count, soft), "active_paths": paths}
