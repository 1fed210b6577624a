"""a-FlexCore: channel-adaptive processing-element activation (§5.1).

Plain FlexCore always evaluates ``N_PE`` paths.  a-FlexCore exploits the
pre-processing probabilities further: it activates only the first ``j``
paths whose cumulative ``Pc`` reaches a target mass (0.95 in Fig. 10).
In well-conditioned channels — e.g. far fewer users than AP antennas —
``j`` collapses towards 1 and the complexity approaches a linear
detector's, while in harsh channels all ``N_PE`` elements light up.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import DetectionResult
from repro.errors import ConfigurationError
from repro.flexcore.detector import FlexCoreContext, FlexCoreDetector
from repro.mimo.system import MimoSystem
from repro.utils.flops import NULL_COUNTER, FlopCounter


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

    def _finalize_context(self, qr, preprocessing, diag) -> FlexCoreContext:
        # Hooking the shared context builder keeps the single-channel
        # ``prepare`` and the stacked ``prepare_many`` paths in lockstep.
        context = super()._finalize_context(qr, preprocessing, diag)
        cumulative = np.cumsum(context.preprocessing.probabilities)
        covered = np.searchsorted(cumulative, self.probability_target) + 1
        context.active_paths = int(
            min(covered, context.preprocessing.position_vectors.shape[0])
        )
        return context

    def detect_prepared(
        self,
        context: FlexCoreContext,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
    ) -> DetectionResult:
        result = super().detect_prepared(context, received, counter=counter)
        result.metadata["active_paths"] = context.active_paths
        return result

    def detect_block_prepared(
        self,
        contexts,
        received: np.ndarray,
        counter: FlopCounter = NULL_COUNTER,
        xp=None,
        store=None,
        max_paths: "int | None" = None,
    ):
        indices, metadata = super().detect_block_prepared(
            contexts,
            received,
            counter=counter,
            xp=xp,
            store=store,
            max_paths=max_paths,
        )
        # The kernel sees the *unclamped* cached contexts (the budget is
        # a slice inside it), so report the effective activation the way
        # the serial path's clamped copies would.
        for entry, context in zip(metadata, contexts):
            active = context.active_paths
            if max_paths is not None:
                active = min(active, int(max_paths))
            entry["active_paths"] = int(active)
        return indices, metadata
