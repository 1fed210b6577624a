"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro.experiments.runner --experiment fig9 --profile quick
    python -m repro.experiments.runner --all --out results/
    python -m repro.experiments.runner --preset farm-overload --experiment farm
    python -m repro.experiments.runner --config stack.json --experiment fig9

Each experiment prints its table to stdout and optionally saves JSON.

Every experiment that builds stacks takes one
:class:`repro.api.StackConfig`, ``stack_config``, and builds every stack
of its run from it.  The runner starts from ``--config stack.json`` or a
named ``--preset`` when given, else from the experiment's own default
(the ``stack_config`` default of its ``run``), and layers the individual
flags (``--backend`` / ``--streaming`` / ``--cells`` / ``--governor``) on
top.  Every saved experiment JSON embeds the config its stacks were
built from under ``"config"``, so published results are reproducible
from their own metadata; an experiment that builds no stack saves none.
``--dump-config`` writes the one config the run hands its experiments —
a link experiment is handed the runtime half it saves — and refuses
when there is none or more than one.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.api import BackendSpec, GovernorSpec, StackConfig, presets
from repro.control import POLICY_NAMES
from repro.control.workload import SCENARIOS
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import (
    ablations,
    farm,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig9,
    fleet,
    get_profile,
    soft_gain,
    table1,
    table2,
    table3,
)
from repro.experiments.common import atomic_write_text
from repro.experiments.linkruns import runtime_stack_config
from repro.obs import clear_global, install_global

EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "ablations": ablations.run,
    "soft_gain": soft_gain.run,
    "farm": farm.run,
    "fleet": fleet.run,
}
#: The experiments that run, and save, the runtime half of their config.
LINK_EXPERIMENTS = frozenset({"fig9", "fig10", "fig12", "soft_gain", "table1"})


def _load_base_config(args, parser) -> "StackConfig | None":
    """The ``--config`` / ``--preset`` stack, or None for neither."""
    if args.config and args.preset:
        parser.error("--config and --preset are mutually exclusive")
    if args.preset:
        try:
            return presets.get(args.preset)
        except ConfigurationError as error:
            parser.error(str(error))
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text())
        except OSError as error:
            parser.error(f"--config {args.config}: {error}")
        except ValueError as error:
            parser.error(f"--config {args.config}: invalid JSON ({error})")
        try:
            return StackConfig.from_dict(payload)
        except ConfigurationError as error:
            parser.error(f"--config {args.config}: {error}")
    return None


def _layer_flags(config: StackConfig, args) -> StackConfig:
    """Apply the individual CLI flags as overrides onto ``config``; a
    ``--trace`` / ``--metrics-dump`` run records tracing on, so a saved
    result's embedded config reproduces the observed run."""
    if args.backend is not None:
        config = replace(config, backend=BackendSpec(args.backend))
    cells = args.cells if args.cells is not None else config.farm.cells
    streaming = (
        config.farm.streaming
        or args.streaming
        or cells > 1
        or args.governor is not None
        or config.governor is not None
    )
    if (streaming, cells) != (config.farm.streaming, config.farm.cells):
        config = replace(
            config,
            farm=replace(config.farm, streaming=streaming, cells=cells),
        )
    if args.governor is not None:
        governor = (
            replace(config.governor, policy=args.governor)
            if config.governor is not None
            else GovernorSpec(policy=args.governor)
        )
        config = replace(config, governor=governor)
    if args.trace or args.metrics_dump:
        config = replace(config, tracing=replace(config.tracing, enabled=True))
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate FlexCore (NSDI'17) tables and figures."
    )
    parser.add_argument(
        "--experiment",
        choices=sorted(EXPERIMENTS),
        help="single experiment to run",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--profile",
        default=None,
        help="quick | medium | full (default: REPRO_PROFILE or quick)",
    )
    parser.add_argument(
        "--out", default=None, help="directory for JSON results"
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="load the whole runtime stack from a StackConfig JSON file "
        "(see repro.api); the individual flags below override its fields",
    )
    parser.add_argument(
        "--preset",
        default=None,
        help="start from a named StackConfig preset "
        f"({', '.join(presets.names())}); flags override its fields",
    )
    parser.add_argument(
        "--dump-config",
        default=None,
        metavar="PATH",
        help="write the effective StackConfig JSON to PATH (usable "
        "later via --config); with no --experiment/--all, dump and exit",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="runtime execution backend (serial | array); array walks a "
        "coherence block as one stacked tensor, natively where "
        "repro.native has a lane",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="route detection through the slot-deadline streaming "
        "scheduler instead of the direct batch engine; results are "
        "bit-identical",
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=None,
        help="shard detection across N cells with per-cell context "
        "caches (implies --streaming when > 1)",
    )
    parser.add_argument(
        "--governor",
        choices=POLICY_NAMES,
        default=None,
        help="attach the adaptive control plane with this path-budget "
        "policy (implies --streaming); link experiments detach it, the "
        "`farm` experiment measures it",
    )
    parser.add_argument(
        "--workload",
        choices=SCENARIOS,
        default=None,
        help="traffic scenario shape for control-plane experiments "
        "(experiments that take a `workload` parameter, e.g. `farm`)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="partition the farm's cells across N coordinated worker "
        "processes (experiments that take a `workers` parameter, e.g. "
        "`fleet`); each worker rebuilds its stack slice from the "
        "serialized StackConfig",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a span timeline across every experiment run and "
        "write it to PATH as Chrome trace-event JSON (open in "
        "chrome://tracing or https://ui.perfetto.dev); implies tracing "
        "on in the effective StackConfig",
    )
    parser.add_argument(
        "--metrics-dump",
        default=None,
        metavar="PATH",
        help="write the run's metrics registry (counters, gauges, "
        "latency histograms) to PATH in Prometheus text exposition "
        "format; implies tracing on in the effective StackConfig",
    )
    args = parser.parse_args(argv)
    if args.cells is not None and args.cells < 1:
        parser.error("--cells must be >= 1")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")

    base = _load_base_config(args, parser)
    names = sorted(EXPERIMENTS) if args.all else [args.experiment] if args.experiment else []
    try:
        runner_config = _layer_flags(base or StackConfig(), args)
        # What each stack-building experiment is handed: the loaded config,
        # or else its own default, with the flags layered on.
        configs = {
            name: runner_config if base is not None else _layer_flags(parameter.default, args)
            for name in names
            if (parameter := inspect.signature(EXPERIMENTS[name]).parameters.get("stack_config"))
        }
        for name in LINK_EXPERIMENTS.intersection(configs):
            configs[name] = runtime_stack_config(configs[name])
    except ConfigurationError as error:
        parser.error(str(error))

    if args.dump_config:
        dumped = list(configs.values()) if names else [runner_config]
        if not dumped:
            parser.error(f"--dump-config: {names[0]} builds no stack, so it has no config")
        if any(config != dumped[0] for config in dumped):
            parser.error("--dump-config: --all runs each experiment on its own default, and "
                         "link experiments drop detector and governor; give one --experiment")  # fmt: skip
        atomic_write_text(args.dump_config, json.dumps(dumped[0].to_dict(), indent=2) + "\n")
        print(f"[effective stack config written to {args.dump_config}]")
        if not names:
            return 0

    if not names:
        parser.error("choose --experiment NAME or --all")
    profile = get_profile(args.profile)

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    obs = None
    if args.trace or args.metrics_dump:
        # One process-global hub spans every experiment of the run:
        # stacks built anywhere below (experiments, coordinators,
        # forked-farm slices) record into it without plumbing.
        obs = runner_config.tracing.build()
        install_global(obs)
    try:
        for name in names:
            started = time.perf_counter()
            entry = EXPERIMENTS[name]
            parameters = inspect.signature(entry).parameters
            kwargs = {}
            if name in configs:
                kwargs["stack_config"] = configs[name]
            elif runner_config != StackConfig():
                print(f"[{name}: builds no stack, runtime flags ignored]")
            for key in ("workload", "workers"):
                value = getattr(args, key)
                if value is None:
                    continue
                if key in parameters:
                    kwargs[key] = value
                else:
                    print(f"[{name}: no {key} parameter, running default]")
            try:
                result = entry(profile, **kwargs)
            except ExperimentError as error:
                print(f"{name}: FAILED — {error}", file=sys.stderr)
                return 1
            elapsed = time.perf_counter() - started
            print(result.to_text_table())
            print(f"[{name} completed in {elapsed:.1f}s]")
            print()
            if out_dir:
                result.save_json(out_dir / f"{name}.json")
    finally:
        if obs is not None:
            clear_global()
            if args.trace:
                obs.export_trace(args.trace)
                print(
                    f"[trace written to {args.trace} — open in "
                    "chrome://tracing or https://ui.perfetto.dev]"
                )
            if args.metrics_dump:
                obs.dump_metrics(args.metrics_dump)
                print(f"[metrics written to {args.metrics_dump}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
