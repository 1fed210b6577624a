"""``build_stack``: one :class:`StackConfig` in, one live stack out.

The assembly half of the config-first API: takes the declarative
:class:`~repro.api.specs.StackConfig` and wires the same objects the
repo's callers used to construct by hand — detector,
:class:`~repro.runtime.service.DetectionService` (via the engines),
per-cell caches, :class:`~repro.runtime.scheduler.StreamingScheduler`
and :class:`~repro.control.governor.ComputeGovernor` — behind the
:class:`UplinkStack` facade.  The equivalence suite pins the facade
bit-identical to the hand-constructed engines across serial / array x
batch / streaming x governed / ungoverned, so nothing is lost by going
through the config.  A stack is one process with two in-process routes
(``BackendSpec("serial")``, the per-subcarrier reference, and
``BackendSpec("array")``, the stacked walk); the one multi-process
mechanism is :class:`~repro.farm.coordinator.FarmCoordinator`, which
splits one ``StackConfig`` across N supervised worker processes, each
building its slice through this same function.
"""

from __future__ import annotations

from repro.api.specs import StackConfig
from repro.control.workload import (
    WorkloadScenario,
    calibrate_slot_cost,
    run_paced,
)
from repro.detectors.base import Detector
from repro.errors import ConfigurationError
from repro.obs import get_global
from repro.runtime.cells import StreamingUplinkEngine
from repro.runtime.engine import BatchedUplinkEngine
from repro.utils.flops import NULL_COUNTER, FlopCounter

#: Sentinel: "use the stack's configured governor" (``None`` must stay
#: expressible — it means "run this scenario ungoverned").
_CONFIGURED = object()


class UplinkStack:
    """A fully-assembled detection stack behind one context manager.

    Built by :func:`build_stack`; not constructed directly.  Exposes the
    whole stack's surface:

    * :meth:`detect_batch` — the synchronous batch API (bit-identical to
      the underlying engine's);
    * :meth:`run_streaming` / :meth:`calibrate_slot_cost` — pace a
      seeded :class:`~repro.control.workload.WorkloadScenario` through
      the streaming farm (streaming stacks only);
    * :meth:`stats` — one JSON-friendly snapshot of the stack's
      accounting (cache movement, per-cell stats, scheduler telemetry,
      governor summary);
    * :meth:`close` — release backend resources; idempotent, and also
      run by the context manager.
    """

    def __init__(
        self,
        config: StackConfig,
        detector: Detector,
        engine,
        governor=None,
        obs=None,
    ):
        self.config = config
        self.detector = detector
        self.engine = engine
        self.governor = governor
        #: The stack's :class:`~repro.obs.Observability` hub (tracer +
        #: metrics registry), or None when tracing is off.
        self.obs = obs
        self._closed = False

    # -- passthrough surface -------------------------------------------
    @property
    def backend(self):
        """The execution backend the stack runs on."""
        return self.engine.backend

    @property
    def streaming(self) -> bool:
        return self.config.farm.streaming

    @property
    def supports_soft(self) -> bool:
        return self.engine.supports_soft

    @property
    def cache_stats(self):
        """Cache snapshot(s): one, or ``{cell_id: CacheStats}``."""
        return self.engine.cache_stats

    @property
    def farm(self):
        """The :class:`~repro.runtime.cells.CellFarm` (streaming only)."""
        self._require_streaming("farm")
        return self.engine.farm

    @property
    def cell_ids(self) -> "tuple[str, ...]":
        return self.config.farm.cell_ids()

    def clear_cache(self) -> None:
        self.engine.clear_cache()

    def detect_batch(
        self,
        channels,
        received=None,
        noise_var: "float | None" = None,
        counter: FlopCounter = NULL_COUNTER,
        use_soft: bool = False,
    ):
        """Detect one uplink batch — the engines' exact contract."""
        return self.engine.detect_batch(
            channels,
            received,
            noise_var,
            counter=counter,
            use_soft=use_soft,
        )

    # -- streaming workloads -------------------------------------------
    def _require_streaming(self, what: str) -> None:
        if not self.config.farm.streaming:
            raise ConfigurationError(
                f"{what} requires a streaming stack; this config is "
                f"batch ({self.config.describe()})"
            )

    def calibrate_slot_cost(
        self,
        scenario: WorkloadScenario,
        cell_channels: dict,
        noise_var: float,
        seed: "int | None" = None,
    ) -> float:
        """Warm wall-clock cost of one full-load slot through the farm."""
        self._require_streaming("calibrate_slot_cost")
        return calibrate_slot_cost(
            self.engine.farm,
            scenario,
            cell_channels,
            self.detector.system,
            noise_var,
            seed=seed,
            batch_target=self.config.scheduler.batch_target,
            flush_margin_s=self.config.scheduler.flush_margin_s,
        )

    def run_streaming(
        self,
        scenario: WorkloadScenario,
        cell_channels: dict,
        noise_var: float,
        slot_interval_s: "float | None" = None,
        overload: float = 1.0,
        governor=_CONFIGURED,
        seed: "int | None" = None,
        keep_detections: bool = False,
    ):
        """Pace one scenario through the streaming farm.

        ``slot_interval_s=None`` calibrates first (one warm full-load
        slot) and paces at ``overload x`` that cost — the shared
        protocol of the farm experiment, the adaptive-farm demo and the
        governor bench.  ``governor`` defaults to the stack's configured
        one; pass ``None`` explicitly to run the same farm ungoverned
        (e.g. for a baseline comparison on warm caches).

        The configured :class:`~repro.api.specs.SchedulerSpec` governs
        the paced schedulers too: ``batch_target`` and
        ``flush_margin_s`` are applied as given, and an explicit
        ``slot_budget_s`` overrides the default deadline budget of a
        paced run (which is the pacing interval itself — the real-time
        contract; the spec's ``None`` keeps that default rather than
        meaning unbounded here).

        Returns ``(ScenarioOutcome, SchedulerTelemetry)``.
        """
        self._require_streaming("run_streaming")
        if slot_interval_s is None:
            slot_interval_s = overload * self.calibrate_slot_cost(
                scenario, cell_channels, noise_var
            )
        spec = self.config.scheduler
        return run_paced(
            self.engine.farm,
            scenario,
            cell_channels,
            self.detector.system,
            noise_var,
            slot_interval_s,
            governor=self.governor if governor is _CONFIGURED else governor,
            seed=seed,
            keep_detections=keep_detections,
            batch_target=spec.batch_target,
            slot_budget_s=spec.slot_budget_s,
            flush_margin_s=spec.flush_margin_s,
        )

    # -- accounting ----------------------------------------------------
    def stats(self) -> dict:
        """One JSON-friendly snapshot of the whole stack's accounting."""
        payload = {
            "config": self.config.to_dict(),
            "backend": self.backend.name,
            "streaming": self.streaming,
        }
        cache = self.engine.cache_stats
        if isinstance(cache, dict):
            payload["cache"] = {
                cell_id: snapshot.as_dict()
                for cell_id, snapshot in cache.items()
            }
        else:
            payload["cache"] = cache.as_dict()
        if self.streaming:
            payload["cells"] = {
                cell_id: stats.as_dict()
                for cell_id, stats in self.engine.cell_stats.items()
            }
            if self.engine.scheduler_summary is not None:
                payload["scheduler"] = dict(self.engine.scheduler_summary)
        if self.governor is not None:
            payload["governor"] = self.governor.as_dict()
        return payload

    # -- observability -------------------------------------------------
    def _require_obs(self, what: str):
        if self.obs is None:
            raise ConfigurationError(
                f"{what} requires tracing; enable it with "
                "TracingSpec(enabled=True) in the config (or the "
                "runner's --trace flag)"
            )
        return self.obs

    def export_trace(self, path) -> None:
        """Write the stack's Chrome trace-event JSON to ``path``."""
        self._require_obs("export_trace").export_trace(path)

    def dump_metrics(self, path) -> None:
        """Write the Prometheus metrics exposition to ``path``."""
        self._require_obs("dump_metrics").dump_metrics(path)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release backend resources; safe to call more than once."""
        if not self._closed:
            self.engine.close()
            self._closed = True

    def __enter__(self) -> "UplinkStack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UplinkStack({self.config.describe()})"


def build_stack(
    config: StackConfig, detector: "Detector | None" = None
) -> UplinkStack:
    """Assemble a live :class:`UplinkStack` from one :class:`StackConfig`.

    ``detector`` overrides ``config.detector`` with a pre-built instance
    — the hook experiments that sweep many detectors over one runtime
    stack use (the config then describes the runtime; the caller owns
    the detector).  With both absent there is nothing to drive:
    :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(config, StackConfig):
        raise ConfigurationError(
            f"build_stack needs a StackConfig, got {type(config).__name__}"
        )
    if detector is None:
        if config.detector is None:
            raise ConfigurationError(
                "this StackConfig has no detector spec; pass a built "
                "detector (build_stack(config, detector=...)) or set "
                "config.detector"
            )
        detector = config.detector.build()
    elif not isinstance(detector, Detector):
        raise ConfigurationError(
            f"detector override must be a Detector, got "
            f"{type(detector).__name__}"
        )
    backend = config.backend.build()
    # A process-global hub (the runner's --trace) takes precedence over
    # the config's own spec; either way a single hub spans the stack.
    obs = get_global()
    if obs is None:
        obs = config.tracing.build()
    if config.farm.streaming:
        governor = (
            config.governor.build(
                constellation=detector.system.constellation
            )
            if config.governor is not None
            else None
        )
        engine = StreamingUplinkEngine(
            detector,
            backend=backend,
            cells=config.farm.cells,
            cell_prefix=config.farm.cell_prefix,
            cell_offset=config.farm.cell_offset,
            batch_target=config.scheduler.batch_target,
            slot_budget_s=config.scheduler.effective_slot_budget_s,
            flush_margin_s=config.scheduler.flush_margin_s,
            max_cache_entries=config.cache.max_entries,
            governor=governor,
            obs=obs,
        )
        if governor is not None and obs is not None:
            governor.tracer = obs.tracer
    else:
        governor = None
        engine = BatchedUplinkEngine(
            detector,
            backend=backend,
            cache_contexts=config.cache.enabled,
            max_cache_entries=config.cache.max_entries,
            obs=obs,
        )
    return UplinkStack(config, detector, engine, governor, obs=obs)
