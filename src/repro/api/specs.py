"""Typed, frozen, serializable specs for one whole detection stack.

FlexCore's pitch is *flexibility* — one detection core reconfigured per
deployment.  RaPro and Decentralized Baseband Processing (PAPERS.md)
both coordinate pooled baseband compute through explicit, transferable
configuration; this module is that coordination primitive for the repro
runtime: a stack description that can be serialized, diffed, and shipped
to a worker process.

Every spec here is a **frozen dataclass** that validates at construction
(raising :class:`~repro.errors.ConfigurationError`) and round-trips
losslessly through plain JSON-safe dicts::

    config = StackConfig(detector=DetectorSpec("flexcore", 8, params={"num_paths": 64}))
    assert StackConfig.from_dict(config.to_dict()) == config

Both directions are computed from ``dataclasses.fields`` by one mixin,
so a field cannot be added without being serialized.  ``from_dict`` is
strict: unknown keys, bad registry names, and cross-field violations (a
governor on a non-streaming stack, say) are rejected with a
:class:`~repro.errors.ConfigurationError` — a config file cannot
silently misconfigure a stack.

The composed :class:`StackConfig` is what
:func:`repro.api.build_stack` assembles into a live
:class:`~repro.api.stack.UplinkStack`, what the experiment runner's
``--config`` / ``--preset`` flags load, and what every saved
:class:`~repro.experiments.common.ExperimentResult` embeds so published
JSON is reproducible from its own metadata.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache
from typing import get_args, get_type_hints

from repro.control.policy import (
    POLICY_NAMES,
    AimdPolicy,
    PathBudgetPolicy,
    SnrAwarePolicy,
    StaticPolicy,
)
from repro.detectors.base import Detector
from repro.detectors.registry import available_detectors, make_detector
from repro.errors import ConfigurationError, ReproError
from repro.mimo.system import MimoSystem
from repro.modulation.constellation import QamConstellation
from repro.runtime.backends import (
    ExecutionBackend,
    available_backends,
    make_backend,
)

@cache
def _nested_specs(cls) -> dict:
    """``{field name: spec class}`` of the fields annotated with a spec
    (``BackendSpec``) or an optional one (``DetectorSpec | None``)."""
    return {
        name: part
        for name, hint in get_type_hints(cls).items()
        for part in (hint, *get_args(hint))
        if isinstance(part, type) and issubclass(part, _SpecDict)
    }


class _SpecDict:
    """``to_dict`` and a strict ``from_dict`` for every spec, computed
    from ``dataclasses.fields``: keys are the fields in field order,
    nested specs recurse, ``None`` stays ``None``, ``params`` is copied."""

    def to_dict(self) -> dict:
        """A JSON-native dict; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict):
        """Parse (strictly) what :meth:`to_dict` produced."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"{cls.__name__} payload must be a mapping, got "
                f"{type(payload).__name__}"
            )
        allowed = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ConfigurationError(
                f"{cls.__name__} does not accept {unknown}; known keys: "
                f"{sorted(allowed)}"
            )
        kwargs = dict(payload)
        for name, spec in _nested_specs(cls).items():
            if kwargs.get(name) is not None:
                kwargs[name] = spec.from_dict(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True)
class DetectorSpec(_SpecDict):
    """Which detector, on which MIMO system, with which knobs.

    Attributes
    ----------
    name:
        A :func:`repro.detectors.registry.make_detector` registry name
        (``"flexcore"``, ``"mmse"``, ``"soft-flexcore"``, ...).
    num_streams / num_rx_antennas:
        The ``Nt x Nr`` uplink; ``num_rx_antennas=None`` means square
        (``Nr = Nt``).
    qam_order:
        Constellation order of every user.
    params:
        Extra detector constructor kwargs (``num_paths``,
        ``num_expanded``, ``qr_method``, ...), JSON-native values only.
    """

    name: str
    num_streams: int
    num_rx_antennas: "int | None" = None
    qam_order: int = 16
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in available_detectors():
            raise ConfigurationError(
                f"unknown detector {self.name!r}; options: "
                f"{available_detectors()}"
            )
        if self.num_streams < 1:
            raise ConfigurationError("num_streams must be >= 1")
        rx = self.num_rx_antennas
        if rx is not None and rx < self.num_streams:
            raise ConfigurationError(
                f"need num_rx_antennas >= num_streams, got {rx} < "
                f"{self.num_streams}"
            )
        try:
            QamConstellation(self.qam_order)
        except ReproError as error:
            raise ConfigurationError(
                f"bad qam_order {self.qam_order!r}: {error}"
            ) from None
        if not isinstance(self.params, dict) or any(
            not isinstance(key, str) for key in self.params
        ):
            raise ConfigurationError(
                "detector params must be a {str: value} mapping"
            )
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------
    def system(self) -> MimoSystem:
        """The :class:`~repro.mimo.system.MimoSystem` this spec names."""
        return MimoSystem(
            self.num_streams,
            self.num_rx_antennas
            if self.num_rx_antennas is not None
            else self.num_streams,
            QamConstellation(self.qam_order),
        )

    def build(self) -> Detector:
        """Instantiate the detector through the registry."""
        return make_detector(self.name, self.system(), **self.params)


@dataclass(frozen=True)
class BackendSpec(_SpecDict):
    """Which execution backend runs the detection work.

    Attributes
    ----------
    name:
        A :func:`repro.runtime.backends.make_backend` registry name
        (``"serial"``, ``"array"``).
    """

    name: str = "serial"

    def __post_init__(self) -> None:
        if self.name not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.name!r}; registered backends: "
                f"{', '.join(available_backends())}"
            )

    # ------------------------------------------------------------------
    def build(self) -> ExecutionBackend:
        """Instantiate the backend through the registry."""
        return make_backend(self.name)


@dataclass(frozen=True)
class CacheSpec(_SpecDict):
    """The coherence context cache every cell carries."""

    max_entries: int = 1024

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError("cache max_entries must be >= 1")


@dataclass(frozen=True)
class SchedulerSpec(_SpecDict):
    """Flush policy of the streaming slot-deadline scheduler.

    Only meaningful on a streaming stack (``FarmSpec.streaming``);
    :class:`StackConfig` rejects non-default scheduler settings on a
    batch stack.

    Attributes
    ----------
    batch_target:
        Frames per coherence group that trigger an immediate flush;
        ``None`` lets the driver pick (one full batch for
        ``detect_batch``, the slot burst size for a paced run).
    slot_budget_s:
        Deadline budget from a group's first arrival; ``None`` means
        unbounded for ``detect_batch`` (offline replay — JSON has no
        ``inf``) and the pacing interval for a paced run.
    """

    batch_target: "int | None" = None
    slot_budget_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.batch_target is not None and self.batch_target < 1:
            raise ConfigurationError("batch_target must be >= 1")
        if self.slot_budget_s is not None and not self.slot_budget_s > 0:
            raise ConfigurationError(
                f"slot budget must be positive, got {self.slot_budget_s}"
            )


@dataclass(frozen=True)
class FarmSpec(_SpecDict):
    """Stack topology: batch adapter, or a streaming farm of N cells.

    Attributes
    ----------
    streaming:
        Route detection through the slot-deadline streaming scheduler
        (:mod:`repro.runtime.scheduler`) instead of straight into the
        detection service.
    cells:
        Cells sharing the execution backend, each with a private
        context cache; ``cells > 1`` requires ``streaming``.
    cell_offset:
        First cell index this farm serves: ids run
        ``cell{offset} .. cell{offset + cells - 1}`` (the first is
        :data:`~repro.runtime.scheduler.DEFAULT_CELL`).  Zero for a
        whole farm; non-zero slices are what
        :meth:`StackConfig.split_cells` hands each coordinated worker
        so global cell ids stay unique across the fleet.
    """

    streaming: bool = False
    cells: int = 1
    cell_offset: int = 0

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ConfigurationError("cells must be >= 1")
        if self.cell_offset < 0:
            raise ConfigurationError("cell_offset must be >= 0")

    def cell_ids(self) -> "tuple[str, ...]":
        return tuple(
            f"cell{self.cell_offset + index}"
            for index in range(self.cells)
        )


@dataclass(frozen=True)
class GovernorSpec(_SpecDict):
    """The adaptive control plane: policy, budget range, escalation.

    One flat spec covers all three policies — fields irrelevant to the
    chosen policy are simply unused, so a config can switch ``policy``
    without re-plumbing:

    * ``static`` — fixed budget of ``paths_max``;
    * ``aimd`` — AIMD on deadline misses from ``paths_min`` up to
      ``paths_max``, its headroom gate sized by ``peak_frames_hint``;
    * ``snr`` — a-FlexCore minimum budget meeting ``target_error_rate``
      under the level-error model, read off the path search of each
      cell's latest flush.

    ``total_path_budget`` bounds the sum of the cells' budgets (see
    :class:`~repro.control.governor.ComputeGovernor`).  The AIMD steps
    and the shedding hysteresis are the control modules' constants.
    """

    policy: str = "aimd"
    paths_min: int = 2
    paths_max: int = 128
    peak_frames_hint: "int | None" = None
    target_error_rate: float = 0.05
    total_path_budget: "int | None" = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown governor policy {self.policy!r}; options: "
                f"{', '.join(POLICY_NAMES)}"
            )
        if self.paths_min < 1:
            raise ConfigurationError("paths_min must be >= 1")
        if self.paths_max < self.paths_min:
            raise ConfigurationError(
                f"paths_max ({self.paths_max}) must be >= paths_min "
                f"({self.paths_min})"
            )
        if self.peak_frames_hint is not None and self.peak_frames_hint < 1:
            raise ConfigurationError("peak_frames_hint must be >= 1")
        if not 0.0 < self.target_error_rate < 1.0:
            raise ConfigurationError(
                "target_error_rate must lie in (0, 1)"
            )
        if self.total_path_budget is not None and self.total_path_budget < 1:
            raise ConfigurationError("total_path_budget must be >= 1")

    # ------------------------------------------------------------------
    def build_policy(self) -> PathBudgetPolicy:
        """The policy prototype this spec describes."""
        if self.policy == "static":
            return StaticPolicy(self.paths_max)
        if self.policy == "aimd":
            return AimdPolicy(
                self.paths_min,
                self.paths_max,
                peak_frames_hint=self.peak_frames_hint,
            )
        return SnrAwarePolicy(
            self.paths_min,
            self.paths_max,
            target_error_rate=self.target_error_rate,
        )

    def build(self, constellation=None):
        """A fresh :class:`~repro.control.governor.ComputeGovernor`.

        ``constellation`` is accepted and unused: no policy needs it, and
        ``flexbench/paced.py``, which the benchmark freezes, passes it."""
        from repro.control.governor import ComputeGovernor

        return ComputeGovernor(
            self.build_policy(),
            total_path_budget=self.total_path_budget,
        )


@dataclass(frozen=True)
class TracingSpec(_SpecDict):
    """Observability switch: span tracing + metrics for the stack.

    Off by default — a disabled spec builds no tracer and the
    instrumented code paths fall through to the shared no-op tracer.
    When enabled, :func:`repro.api.build_stack` attaches one
    :class:`~repro.obs.Observability` hub (tracer + metrics registry)
    to the whole stack, exported via
    :meth:`~repro.api.stack.UplinkStack.export_trace` /
    :meth:`~repro.api.stack.UplinkStack.dump_metrics` or the runner's
    ``--trace`` / ``--metrics-dump`` flags.

    Attributes
    ----------
    enabled:
        Record spans and metrics for this stack.
    max_events:
        Tracer ring-buffer capacity; the oldest spans drop first on a
        long run.
    """

    enabled: bool = False
    max_events: int = 65536

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise ConfigurationError("max_events must be >= 1")

    def build(self):
        """An :class:`~repro.obs.Observability` hub, or None if off."""
        if not self.enabled:
            return None
        from repro.obs import Observability

        return Observability(max_events=self.max_events)


@dataclass(frozen=True)
class StackConfig(_SpecDict):
    """One declarative description of a whole detection stack.

    Composes the per-layer specs — detector, execution backend, context
    cache, farm topology, streaming flush policy, control plane — into
    the single serializable value :func:`repro.api.build_stack`
    assembles, the runner's ``--config`` loads, and saved experiment
    JSON embeds.

    ``detector`` may be ``None`` for a *runtime-only* config: the stack
    description an experiment that sweeps many detectors shares across
    its measurements (``build_stack`` then requires an explicit
    ``detector=`` argument).

    Cross-field validation happens here: a governor or non-default
    scheduler settings require a streaming farm, and multiple cells
    require streaming.
    """

    detector: "DetectorSpec | None" = None
    backend: BackendSpec = field(default_factory=BackendSpec)
    cache: CacheSpec = field(default_factory=CacheSpec)
    farm: FarmSpec = field(default_factory=FarmSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    governor: "GovernorSpec | None" = None
    tracing: TracingSpec = field(default_factory=TracingSpec)

    def __post_init__(self) -> None:
        for name, cls in _nested_specs(StackConfig).items():
            value = getattr(self, name)
            if value is None and name in ("detector", "governor"):
                continue
            if not isinstance(value, cls):
                raise ConfigurationError(
                    f"StackConfig.{name} must be a {cls.__name__} "
                    f"(got {type(value).__name__})"
                )
        if not self.farm.streaming:
            if self.farm.cells > 1:
                raise ConfigurationError(
                    f"{self.farm.cells} cells require a streaming stack "
                    "(set farm.streaming=true)"
                )
            if self.governor is not None:
                raise ConfigurationError(
                    "a governor requires a streaming stack (the control "
                    "plane closes its loop over the scheduler's flush "
                    "telemetry); set farm.streaming=true"
                )
            if self.scheduler != SchedulerSpec():
                raise ConfigurationError(
                    "scheduler settings only apply to a streaming "
                    "stack; set farm.streaming=true"
                )

    # ------------------------------------------------------------------
    def split_cells(self, workers: int) -> "tuple[StackConfig, ...]":
        """Partition this streaming farm's cells across ``workers``.

        The coordination primitive of the multi-process farm: each
        returned config describes one worker's contiguous slice of the
        cells (balanced to within one cell, ``cell_offset`` keeping the
        global cell ids unique), with every other layer — detector,
        backend, cache, scheduler, governor policy — copied verbatim,
        so ``build_stack(slice)`` in a fresh process rebuilds exactly
        that worker's share of the farm.  The concatenated
        ``farm.cell_ids()`` of the slices equal this config's
        (property-tested).

        A ``governor.total_path_budget`` is *not* copied into the
        slices: that budget bounds the whole fleet, and per-worker
        governors each applying it to their own subset would multiply
        the pool by the worker count.  The coordinator applies it
        globally instead (see
        :class:`~repro.farm.coordinator.FarmCoordinator`).
        """
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not self.farm.streaming:
            raise ConfigurationError(
                "split_cells needs a streaming farm (set "
                "farm.streaming=true); a batch stack has no cells to "
                "partition"
            )
        if workers > self.farm.cells:
            raise ConfigurationError(
                f"cannot split {self.farm.cells} cells across {workers} "
                "workers (at least one cell per worker)"
            )
        governor = self.governor
        if governor is not None and governor.total_path_budget is not None:
            governor = replace(governor, total_path_budget=None)
        share, extra = divmod(self.farm.cells, workers)
        configs = []
        offset = self.farm.cell_offset
        for index in range(workers):
            cells = share + (1 if index < extra else 0)
            configs.append(
                replace(
                    self,
                    farm=replace(
                        self.farm, cells=cells, cell_offset=offset
                    ),
                    governor=governor,
                )
            )
            offset += cells
        return tuple(configs)

    def describe(self) -> str:
        """One-line human summary (for notes and logs)."""
        parts = []
        if self.detector is not None:
            parts.append(
                f"{self.detector.name} "
                f"{self.detector.num_streams}x"
                f"{self.detector.num_rx_antennas or self.detector.num_streams}"
                f" {self.detector.qam_order}-QAM"
            )
        parts.append(f"backend={self.backend.name}")
        if self.farm.streaming:
            parts.append(f"streaming x{self.farm.cells} cells")
        else:
            parts.append("batch")
        if self.governor is not None:
            parts.append(f"governor={self.governor.policy}")
        if self.tracing.enabled:
            parts.append("traced")
        return ", ".join(parts)
