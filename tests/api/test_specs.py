"""Spec validation and JSON round-trip tests for ``repro.api``.

The config-first contract: every valid :class:`StackConfig` survives
``to_dict`` -> ``json`` -> ``from_dict`` unchanged (the hypothesis
property), and every malformed payload — unknown keys, bad registry
names, cross-field violations — is rejected at construction with a
:class:`~repro.errors.ConfigurationError`.
"""

import inspect
import json
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BackendSpec,
    CacheSpec,
    DetectorSpec,
    FarmSpec,
    GovernorSpec,
    SchedulerSpec,
    StackConfig,
    TracingSpec,
)
from repro.control import AimdPolicy, ComputeGovernor, SnrAwarePolicy
from repro.control.policy import POLICY_NAMES
from repro.errors import ConfigurationError
from repro.experiments.runner import main as runner_main
from repro.runtime import (
    MicroBatcher,
    StreamingScheduler,
    available_backends,
    resolve_array_module,
)
from repro.runtime.scheduler import DEFAULT_CELL


# ---------------------------------------------------------------------------
# Strategies: generate *valid* configs only (invalid ones are the
# rejection tests' job).
# ---------------------------------------------------------------------------

detector_specs = st.builds(
    DetectorSpec,
    name=st.sampled_from(["flexcore", "mmse", "zf", "soft-flexcore"]),
    num_streams=st.integers(min_value=2, max_value=8),
    num_rx_antennas=st.none(),
    qam_order=st.sampled_from([4, 16, 64]),
    params=st.one_of(
        st.just({}),
        st.fixed_dictionaries(
            {"num_paths": st.integers(min_value=1, max_value=64)}
        ),
    ),
).filter(
    # detectors that require num_paths get it; the rest get none
    lambda spec: ("num_paths" in spec.params)
    == (spec.name in ("flexcore", "soft-flexcore"))
)

backend_specs = st.builds(BackendSpec, name=st.sampled_from(["serial", "array"]))

cache_specs = st.builds(
    CacheSpec,
    max_entries=st.integers(min_value=1, max_value=4096),
)

governor_specs = st.builds(
    GovernorSpec,
    policy=st.sampled_from(POLICY_NAMES),
    paths_min=st.integers(min_value=1, max_value=4),
    paths_max=st.integers(min_value=4, max_value=128),
    peak_frames_hint=st.one_of(
        st.none(), st.integers(min_value=1, max_value=512)
    ),
    target_error_rate=st.floats(min_value=0.01, max_value=0.5),
    total_path_budget=st.one_of(
        st.none(), st.integers(min_value=1, max_value=512)
    ),
)

scheduler_specs = st.builds(
    SchedulerSpec,
    batch_target=st.one_of(
        st.none(), st.integers(min_value=1, max_value=16)
    ),
    slot_budget_s=st.one_of(
        st.none(), st.floats(min_value=1e-4, max_value=10.0)
    ),
)


@st.composite
def stack_configs(draw):
    """Valid whole-stack configs across batch/streaming x governed."""
    streaming = draw(st.booleans())
    farm = FarmSpec(
        streaming=streaming,
        cells=draw(st.integers(min_value=1, max_value=4))
        if streaming
        else 1,
    )
    return StackConfig(
        detector=draw(st.one_of(st.none(), detector_specs)),
        backend=draw(backend_specs),
        cache=draw(cache_specs),
        farm=farm,
        scheduler=draw(scheduler_specs) if streaming else SchedulerSpec(),
        governor=draw(st.one_of(st.none(), governor_specs))
        if streaming
        else None,
    )


#: ``json.dumps(preset.to_dict())`` as the hand-written ``to_dict`` pairs
#: produced it at the commit before serialization was derived from the
#: fields, less the two ``backend`` keys numpy-only deleted and the eleven
#: keys only tests ever set (:data:`DELETED_KEYS`) — what
#: ``farm/worker.py`` parses and result metadata stores.
PRESET_JSON = {
    "ap-farm": (
        '{"detector": {"name": "flexcore", "num_streams": 4, "num_rx_antennas": 4'
        ', "qam_order": 16, "params": {"num_paths": 16}}'
        ', "backend": {"name": "serial"}'
        ', "cache": {"max_entries": 1024}'
        ', "farm": {"streaming": true, "cells": 4, "cell_offset": 0}'
        ', "scheduler": {"batch_target": 7, "slot_budget_s": null}'
        ', "governor": null'
        ', "tracing": {"enabled": false, "max_events": 65536}}'
    ),
    "array-soft": (
        '{"detector": {"name": "soft-flexcore", "num_streams": 8, "num_rx_antennas": 8'
        ', "qam_order": 16, "params": {"num_paths": 32}}'
        ', "backend": {"name": "array"}'
        ', "cache": {"max_entries": 1024}'
        ', "farm": {"streaming": false, "cells": 1, "cell_offset": 0}'
        ', "scheduler": {"batch_target": null, "slot_budget_s": null}'
        ', "governor": null'
        ', "tracing": {"enabled": false, "max_events": 65536}}'
    ),
    "farm-overload": (
        '{"detector": {"name": "flexcore", "num_streams": 8, "num_rx_antennas": 8'
        ', "qam_order": 16, "params": {"num_paths": 128}}'
        ', "backend": {"name": "array"}'
        ', "cache": {"max_entries": 1024}'
        ', "farm": {"streaming": true, "cells": 2, "cell_offset": 0}'
        ', "scheduler": {"batch_target": 7, "slot_budget_s": null}'
        ', "governor": {"policy": "aimd", "paths_min": 2, "paths_max": 128'
        ', "peak_frames_hint": 56, "target_error_rate": 0.05, "total_path_budget": null}'
        ', "tracing": {"enabled": false, "max_events": 65536}}'
    ),
    "paper-fig9": (
        '{"detector": {"name": "flexcore", "num_streams": 8, "num_rx_antennas": 8'
        ', "qam_order": 16, "params": {"num_paths": 64}}'
        ', "backend": {"name": "serial"}'
        ', "cache": {"max_entries": 1024}'
        ', "farm": {"streaming": false, "cells": 1, "cell_offset": 0}'
        ', "scheduler": {"batch_target": null, "slot_budget_s": null}'
        ', "governor": null'
        ', "tracing": {"enabled": false, "max_events": 65536}}'
    ),
}

#: The settings an older payload may still carry, with the value every
#: run used: ``{section: {key: value}}``.
DELETED_KEYS = {
    "scheduler": {"flush_margin_s": 0.0},
    "cache": {"enabled": True},
    "farm": {"cell_prefix": "cell"},
    "governor": {
        "start": None,
        "increase": 1,
        "backoff": 0.5,
        "headroom": 0.5,
        "control_interval_s": None,
        "shed_below": 0.5,
        "resume_above": 0.95,
        "probe_every": 8,
    },
}


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(config=stack_configs())
    def test_json_round_trip_is_identity(self, config):
        """from_dict(to_dict(c)) == c, through real JSON text."""
        payload = json.loads(json.dumps(config.to_dict()))
        assert StackConfig.from_dict(payload) == config

    @settings(max_examples=50, deadline=None)
    @given(config=stack_configs())
    def test_to_dict_is_json_native(self, config):
        # json.dumps with allow_nan=False rejects inf/nan — the payload
        # must be strictly portable JSON.
        json.dumps(config.to_dict(), allow_nan=False)

    def test_presets_round_trip(self):
        from repro.api import presets

        for name in presets.names():
            config = presets.get(name)
            payload = json.loads(json.dumps(config.to_dict()))
            assert StackConfig.from_dict(payload) == config

    def test_preset_json_is_byte_stable(self):
        from repro.api import presets

        assert set(presets.names()) == set(PRESET_JSON)
        for name, text in PRESET_JSON.items():
            assert json.dumps(presets.get(name).to_dict()) == text

    @pytest.mark.parametrize(
        "spec",
        [
            DetectorSpec("mmse", 4),
            BackendSpec(),
            CacheSpec(),
            SchedulerSpec(),
            FarmSpec(),
            GovernorSpec(),
            TracingSpec(),
            StackConfig(),
        ],
        ids=lambda spec: type(spec).__name__,
    )
    def test_every_field_is_a_to_dict_key(self, spec):
        """A field cannot be declared without being serialized, in
        declaration order."""
        assert list(spec.to_dict()) == [f.name for f in fields(spec)]


class TestUnknownKeys:
    def test_top_level_unknown_key(self):
        payload = StackConfig().to_dict()
        payload["detecter"] = None
        with pytest.raises(ConfigurationError, match="detecter"):
            StackConfig.from_dict(payload)

    def test_nested_unknown_key(self):
        payload = StackConfig().to_dict()
        payload["backend"]["workers"] = 4
        with pytest.raises(ConfigurationError, match="workers"):
            StackConfig.from_dict(payload)

    def test_detector_unknown_key(self):
        payload = {"name": "flexcore", "num_streams": 4, "paths": 8}
        with pytest.raises(ConfigurationError, match="paths"):
            DetectorSpec.from_dict(payload)

    def test_non_mapping_payload(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            StackConfig.from_dict("not a dict")


class TestBadEnumValues:
    def test_unknown_detector_name(self):
        with pytest.raises(ConfigurationError, match="unknown detector"):
            DetectorSpec("flexcure", 4)

    @pytest.mark.parametrize("name", ["kbest", "kbest-adaptive", "lr-zf"])
    def test_deleted_detector_name(self, name):
        """A config naming a detector the paper never compares against
        is refused when it is parsed, not when the stack is built."""
        payload = StackConfig(detector=DetectorSpec("mmse", 4)).to_dict()
        payload["detector"]["name"] = name
        with pytest.raises(ConfigurationError, match="unknown detector"):
            StackConfig.from_dict(payload)

    def test_unknown_backend_name(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            BackendSpec("gpu")

    def test_unknown_policy_name(self):
        with pytest.raises(ConfigurationError, match="unknown governor"):
            GovernorSpec(policy="pid")

    def test_array_library_selection_is_gone(self):
        """A backend written when it named its array library fails
        loudly, naming the keys; and numpy is the only module."""
        stale = json.loads('{"name": "array", "array_module": null, "residency": null}')
        with pytest.raises(ConfigurationError, match="array_module") as excinfo:
            BackendSpec.from_dict(stale)
        assert "residency" in str(excinfo.value)
        with pytest.raises(ConfigurationError, match="torch"):
            resolve_array_module("torch")

    def test_unknown_array_module(self):
        with pytest.raises(ConfigurationError, match="unknown array module"):
            resolve_array_module("jax")
        with pytest.raises(ConfigurationError, match="array_module"):
            BackendSpec.from_dict({"name": "array", "array_module": "jax"})

    def test_bad_qam_order(self):
        with pytest.raises(ConfigurationError, match="qam_order"):
            DetectorSpec("flexcore", 4, qam_order=5)


class TestFieldValidation:
    def test_negative_streams(self):
        with pytest.raises(ConfigurationError, match="num_streams"):
            DetectorSpec("mmse", 0)

    def test_rx_below_streams(self):
        with pytest.raises(ConfigurationError, match="num_rx_antennas"):
            DetectorSpec("mmse", 4, num_rx_antennas=2)

    def test_non_string_param_keys(self):
        with pytest.raises(ConfigurationError, match="params"):
            DetectorSpec("mmse", 4, params={1: 2})

    def test_cache_needs_entries(self):
        with pytest.raises(ConfigurationError, match="max_entries"):
            CacheSpec(max_entries=0)

    def test_scheduler_rejects_zero_budget(self):
        with pytest.raises(ConfigurationError, match="slot budget"):
            SchedulerSpec(slot_budget_s=0.0)

    def test_farm_needs_a_cell(self):
        with pytest.raises(ConfigurationError, match="cells"):
            FarmSpec(cells=0)

    def test_governor_bounds_ordered(self):
        with pytest.raises(ConfigurationError, match="paths_max"):
            GovernorSpec(paths_min=8, paths_max=4)

    @pytest.mark.parametrize(
        "payload, stale, catalogue",
        [
            (
                {"name": "serial", "max_workers": 4},
                "max_workers",
                ["name"],
            ),
            ({"name": "process-pool"}, "process-pool", ["array", "serial"]),
        ],
        ids=["max_workers", "process-pool"],
    )
    def test_pool_era_payload_rejected(self, payload, stale, catalogue):
        """Configs written for the deleted process pool fail loudly,
        naming what is still accepted (fields / backend registry)."""
        assert available_backends() == ("array", "serial")
        with pytest.raises(ConfigurationError, match=stale) as excinfo:
            BackendSpec.from_dict(payload)
        for name in catalogue:
            assert name in str(excinfo.value)

    def test_array_module_on_serial_rejected(self):
        with pytest.raises(ConfigurationError, match="array_module"):
            BackendSpec.from_dict({"name": "serial", "array_module": "numpy"})


class TestCrossFieldValidation:
    def test_governor_without_streaming(self):
        with pytest.raises(ConfigurationError, match="governor requires"):
            StackConfig(governor=GovernorSpec())

    def test_cells_without_streaming(self):
        with pytest.raises(ConfigurationError, match="streaming"):
            StackConfig(farm=FarmSpec(streaming=False, cells=3))

    def test_scheduler_without_streaming(self):
        with pytest.raises(ConfigurationError, match="scheduler settings"):
            StackConfig(scheduler=SchedulerSpec(batch_target=7))

    def test_wrong_spec_type_rejected(self):
        with pytest.raises(ConfigurationError, match="BackendSpec"):
            StackConfig(backend="serial")


class TestSpecHelpers:
    def test_detector_spec_builds_named_detector(self):
        spec = DetectorSpec("flexcore", 4, params={"num_paths": 8})
        detector = spec.build()
        assert detector.name == "flexcore"
        assert detector.num_paths == 8
        assert detector.system.num_streams == 4
        assert detector.system.num_rx_antennas == 4

    def test_backend_spec_builds_named_backend(self):
        backend = BackendSpec("array").build()
        try:
            assert backend.name == "array"
            assert backend.resident_store is not None
        finally:
            backend.close()

    def test_governor_spec_builds_each_policy(self, constellation):
        for policy in POLICY_NAMES:
            spec = GovernorSpec(policy=policy, paths_min=2, paths_max=16)
            governor = spec.build(constellation=constellation)
            assert governor.policy.name == policy
            assert governor.policy.paths_min in (2, 16)  # static pins max
            assert governor.policy.paths_max == 16

    def test_snr_policy_needs_no_constellation(self):
        """The SNR policy reads its budget off the cell's own path
        search, so no spec build needs the stack's constellation."""
        spec = GovernorSpec(policy="snr", paths_min=2, paths_max=16)
        assert isinstance(spec.build_policy(), SnrAwarePolicy)
        assert spec.build().policy.name == "snr"

    def test_farm_cell_ids(self):
        assert FarmSpec().cell_ids() == (DEFAULT_CELL,)
        farm = FarmSpec(streaming=True, cells=3, cell_offset=2)
        assert farm.cell_ids() == ("cell2", "cell3", "cell4")


class TestSplitCells:
    def streaming_config(self, cells, total_budget=None):
        return StackConfig(
            detector=DetectorSpec("flexcore", 2, 2, 4),
            farm=FarmSpec(streaming=True, cells=cells),
            governor=GovernorSpec(
                policy="aimd",
                paths_min=1,
                paths_max=8,
                total_path_budget=total_budget,
            ),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.integers(min_value=1, max_value=24),
        workers=st.integers(min_value=1, max_value=24),
    )
    def test_partition_is_exact_and_disjoint(self, cells, workers):
        config = self.streaming_config(cells)
        if workers > cells:
            with pytest.raises(ConfigurationError):
                config.split_cells(workers)
            return
        slices = config.split_cells(workers)
        assert len(slices) == workers
        sliced_ids = [
            cell for sub in slices for cell in sub.farm.cell_ids()
        ]
        # Disjoint union preserving order: the fleet's cells, exactly.
        assert sliced_ids == list(config.farm.cell_ids())
        # Near-even split: sizes differ by at most one.
        sizes = [sub.farm.cells for sub in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_offsets_carry_global_cell_names(self):
        config = self.streaming_config(5)
        first, second = config.split_cells(2)
        assert first.farm.cell_ids() == ("cell0", "cell1", "cell2")
        assert second.farm.cell_ids() == ("cell3", "cell4")
        assert second.farm.cell_offset == 3

    def test_slices_round_trip_through_json(self):
        config = self.streaming_config(4)
        for sub in config.split_cells(3):
            payload = json.loads(json.dumps(sub.to_dict()))
            assert StackConfig.from_dict(payload) == sub

    def test_global_budget_stays_with_the_coordinator(self):
        config = self.streaming_config(4, total_budget=16)
        for sub in config.split_cells(2):
            # Each worker applying the *whole* pool to its subset would
            # multiply the fleet's budget by the worker count.
            assert sub.governor.total_path_budget is None
        # The parent keeps it (split_cells never mutates its input).
        assert config.governor.total_path_budget == 16

    def test_validation(self):
        config = self.streaming_config(2)
        with pytest.raises(ConfigurationError):
            config.split_cells(0)
        with pytest.raises(ConfigurationError, match="streaming"):
            StackConfig(
                detector=DetectorSpec("flexcore", 2, 2, 4)
            ).split_cells(1)


class TestSettableSurface:
    """Every value a caller can set, by name.  A new setting has to be
    added here on purpose."""

    LEAVES = (
        "detector.name",
        "detector.num_streams",
        "detector.num_rx_antennas",
        "detector.qam_order",
        "detector.params",
        "backend.name",
        "cache.max_entries",
        "farm.streaming",
        "farm.cells",
        "farm.cell_offset",
        "scheduler.batch_target",
        "scheduler.slot_budget_s",
        "governor.policy",
        "governor.paths_min",
        "governor.paths_max",
        "governor.peak_frames_hint",
        "governor.target_error_rate",
        "governor.total_path_budget",
        "tracing.enabled",
        "tracing.max_events",
    )

    @staticmethod
    def leaves(spec, prefix=""):
        for spec_field in fields(spec):
            value = getattr(spec, spec_field.name)
            if is_dataclass(value):
                yield from TestSettableSurface.leaves(
                    value, f"{prefix}{spec_field.name}."
                )
            else:
                yield prefix + spec_field.name

    def test_stack_config_leaf_fields(self):
        config = StackConfig(
            detector=DetectorSpec("mmse", 4),
            farm=FarmSpec(streaming=True),
            governor=GovernorSpec(),
        )
        assert tuple(self.leaves(config)) == self.LEAVES
        assert len(self.LEAVES) == 20

    @pytest.mark.parametrize(
        "cls, parameters",
        [
            (ComputeGovernor, ("policy", "total_path_budget")),
            (AimdPolicy, ("paths_min", "paths_max", "start", "peak_frames_hint")),
            (SnrAwarePolicy, ("paths_min", "paths_max", "target_error_rate")),
            (MicroBatcher, ("batch_target", "slot_budget_s")),
            (
                StreamingScheduler,
                (
                    "farm",
                    "batch_target",
                    "slot_budget_s",
                    "use_soft",
                    "counter",
                    "governor",
                    "clock",
                ),
            ),
        ],
        ids=[
            "ComputeGovernor",
            "AimdPolicy",
            "SnrAwarePolicy",
            "MicroBatcher",
            "StreamingScheduler",
        ],
    )
    def test_constructor_parameters(self, cls, parameters):
        assert tuple(inspect.signature(cls).parameters) == parameters


class TestDeletedKeys:
    """A payload written before the eleven test-only settings were deleted
    is refused by name, not silently read with a different meaning."""

    @staticmethod
    def stale_payload(section, key):
        payload = StackConfig(
            detector=DetectorSpec("flexcore", 4, params={"num_paths": 8}),
            farm=FarmSpec(streaming=True, cells=2),
            governor=GovernorSpec(),
        ).to_dict()
        payload[section][key] = DELETED_KEYS[section][key]
        return payload

    @pytest.mark.parametrize(
        "section, key",
        [(section, key) for section, keys in DELETED_KEYS.items() for key in keys],
        ids=lambda value: value,
    )
    def test_from_dict_names_the_key(self, section, key):
        with pytest.raises(ConfigurationError, match=key):
            StackConfig.from_dict(self.stale_payload(section, key))

    @pytest.mark.parametrize(
        "section, key",
        [("scheduler", "flush_margin_s"), ("governor", "probe_every")],
        ids=["flush_margin_s", "probe_every"],
    )
    def test_runner_config_names_the_key(self, section, key, tmp_path, capsys):
        path = tmp_path / "stack.json"
        path.write_text(json.dumps(self.stale_payload(section, key)))
        with pytest.raises(SystemExit) as excinfo:
            runner_main(
                ["--config", str(path), "--dump-config", str(tmp_path / "out.json")]
            )
        assert excinfo.value.code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()
