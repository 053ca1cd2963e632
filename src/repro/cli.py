"""Command-line interface: ``python -m repro <command>`` / ``repro <command>``.

Every command resolves its experiment configuration the same declarative way
(see :func:`repro.api.load_experiment_config`):

    preset  <  --config FILE (.json / .toml)  <  --set section.field=value

so ``repro run --config exp.toml --set detector.num_classes=8`` and an
equivalently-constructed in-code config produce identical runs.

Commands:

* ``run`` — resolve a config, train the full AdaScale pipeline (Fig. 2) and
  print the Table-1-style method comparison (optionally saving the bundle);
* ``train`` — run the pipeline and save the trained bundle to a directory;
* ``evaluate`` — load a saved bundle (or train one on the fly) and print the
  comparison of the requested methods, including tail-latency percentiles;
* ``labels`` — print the optimal-scale label distribution (Eq. 2 / Fig. 10);
* ``serve`` — start the multi-stream inference server, replay a synthetic
  load-generated session against it, and print the latency/throughput
  telemetry (see :mod:`repro.serving`);
* ``cluster`` — run a sharded multi-replica deployment through a
  trace-driven workload scenario (flash crowds, diurnal cycles, heavy-tail
  churn, recorded JSONL traces) with the SLO-aware control plane, either on
  the calibrated virtual-time engine or on real shards, one OS process each
  (see :mod:`repro.cluster`);
* ``obs`` — summarize or export a telemetry span log recorded by a traced
  ``serve``/``cluster`` run (``--span-log``): stage/shard rollup tables, SLO
  burn rates, and Chrome-trace / Prometheus exports (see
  :mod:`repro.observability`);
* ``config`` — show/save the resolved config, or ``--check`` that every
  registered preset round-trips losslessly through dict/TOML/JSON forms;
* ``bench`` — run the benchmark harness under ``benchmarks/`` and write the
  machine-readable ``BENCH_<name>.json`` artefacts; with ``--compare`` gate
  fresh results against committed baselines (see :mod:`repro.profiling`).

Presets, datasets, backpressure policies and arrival patterns are resolved by
name through the registries in :mod:`repro.registries`, so components
registered by downstream code are automatically selectable here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import api
from repro.config import ExperimentConfig, TelemetryConfig
from repro.configio import apply_overrides, dumps_toml, loads_toml, toml_supported
from repro.core.pipeline import METHODS
from repro.evaluation import format_table
from repro.registries import (
    ARRIVAL_PATTERNS,
    CLUSTER_SCENARIOS,
    EXPERIMENT_PRESETS,
    ROUTING_POLICIES,
    SCHEDULER_POLICIES,
)
from repro.utils.logging import get_logger

__all__ = ["ALIASES", "Alias", "main", "build_parser"]

_LOGGER = get_logger(__name__)

_DEFAULT_METHODS = ["SS/SS", "MS/SS", "MS/AdaScale"]


# -- flags as second spellings of config fields ------------------------------
@dataclass(frozen=True)
class Alias:
    """A command flag that is a second spelling of config fields.

    ``to`` is the dotted path the flag's value lands on, or a transform
    ``(value, config) -> {dotted path: value}``, where ``config`` is the
    config resolved so far (the flags before this one in the table
    included).  ``options`` are the flag's ``argparse`` keywords.
    """

    flag: str
    to: str | Callable[[Any, ExperimentConfig], Mapping[str, Any]]
    help: str
    options: Mapping[str, Any]

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def overrides(self, value: Any, config: ExperimentConfig) -> Mapping[str, Any]:
        """The dotted-path overrides this flag stands for, given its value."""
        return {self.to: value} if isinstance(self.to, str) else self.to(value, config)


class _Given(argparse.Action):
    """Store a flag's value and record that it was given on the command line."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = (*getattr(namespace, "given", ()), self.dest)


def _fault(spec: str, config: ExperimentConfig) -> dict[str, Any]:
    from repro.cluster.faults import parse_fault_spec

    return {"cluster.fault": parse_fault_spec(spec)}


def _autoscale(_: bool, config: ExperimentConfig) -> dict[str, Any]:
    # Headroom to grow: four times the starting fleet, never fewer than 8.
    max_shards = max(4 * config.cluster.num_shards, 8)
    return {"cluster.autoscaler.enabled": True, "cluster.autoscaler.max_shards": max_shards}


_SWITCH = {"nargs": 0, "const": True, "default": False}
_INT, _FLOAT = {"type": int}, {"type": float}

TELEMETRY_ALIASES = (
    Alias(
        "--telemetry", "telemetry.enabled",
        "trace the run: admission/queue/service spans, completions, control decisions", _SWITCH,
    ),
    Alias(
        "--telemetry-sample", "telemetry.sample_rate",
        "fraction of frames to trace, deterministic per admission (default: 1.0)",
        {"type": float, "default": 1.0, "metavar": "RATE"},
    ),
    Alias(
        "--span-log", lambda path, _: {"telemetry.enabled": True, "telemetry.jsonl_path": path},
        "write every captured event as JSONL here (implies --telemetry) "
        "[--set telemetry.jsonl_path]", {},
    ),
    Alias(
        "--export-trace", lambda _path, _: {"telemetry.enabled": True},
        "write a Chrome trace-event JSON of the run here (implies --telemetry)",
        {"type": Path},
    ),
)
SERVE_ALIASES = (
    Alias("--workers", "serving.num_workers", "worker threads", _INT),
    Alias("--batch-size", "serving.max_batch_size", "max micro-batch size", _INT),
    Alias("--queue", "serving.queue_capacity", "scheduler queue capacity", _INT),
    Alias(
        "--policy", "serving.backpressure", "backpressure policy when the queue is full",
        {"choices": SCHEDULER_POLICIES.names()},
    ),
    Alias("--deadline-ms", "serving.deadline_ms", "shed queued frames older than this", _FLOAT),
    Alias(
        "--key-frame-interval", "serving.key_frame_interval",
        "Deep-Feature-Flow key-frame interval (1 = full detection every frame)", _INT,
    ),
    Alias("--seqnms", "serving.use_seqnms", "Seq-NMS rescoring per stream at finalize", _SWITCH),
    Alias(
        "--quantize-scales", "adascale.quantize_predicted_scale",
        "snap predicted scales to the regressor scale set (shared batch buckets)", _SWITCH,
    ),
    *TELEMETRY_ALIASES,
)
CLUSTER_ALIASES = (
    Alias("--shards", "cluster.num_shards", "number of replica shards", _INT),
    Alias(
        "--mode", "cluster.mode",
        "simulate: calibrated virtual-time engine (deterministic); process: one "
        "spawned OS process per shard (framed pipes, crash supervision, migration)",
        {"choices": ("simulate", "process")},
    ),
    Alias(
        "--router", "cluster.router.policy", "stream placement policy",
        {"choices": ROUTING_POLICIES.names()},
    ),
    Alias(
        "--target-p95-ms", "cluster.governor.target_p95_ms",
        "the ScaleGovernor's rolling-p95 SLO target", _FLOAT,
    ),
    Alias(
        "--no-governor", lambda *_: {"cluster.governor.enabled": False},
        "disable the SLO feedback loop [--set cluster.governor.enabled=false]", _SWITCH,
    ),
    Alias(
        "--autoscale", _autoscale,
        "enable the occupancy autoscaler [--set cluster.autoscaler.enabled=true, "
        "cluster.autoscaler.max_shards=max(4*shards, 8)]", _SWITCH,
    ),
    Alias(
        "--inject-fault", _fault,
        "schedule a process-mode fault, e.g. kill-replica:shard=0,at=2.0 (SIGKILL shard "
        "0's worker 2 s into the run) [--set cluster.fault.kind/shard_id/at_s]",
        {"metavar": "SPEC"},
    ),
    *TELEMETRY_ALIASES,
)
#: command -> its alias flags, applied after ``--set`` in this order
ALIASES: dict[str, tuple[Alias, ...]] = {"serve": SERVE_ALIASES, "cluster": CLUSTER_ALIASES}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AdaScale (MLSys 2019) reproduction — training, evaluation and serving CLI",
    )
    presets = EXPERIMENT_PRESETS.names()
    parser.add_argument("--seed", type=int, default=None, help="experiment seed override")
    parser.add_argument(
        "--preset", choices=presets, default="tiny",
        help="experiment preset: tiny (seconds), vid (SyntheticVID benchmark), ytbb (MiniYTBB)",
    )
    # The same flags are accepted after the subcommand (`repro serve --preset
    # tiny`); SUPPRESS keeps the subparser from clobbering a value given
    # before the subcommand.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="experiment seed override")
    common.add_argument("--preset", choices=presets, help="experiment preset")
    common.add_argument(
        "--config", type=Path, help="a .json/.toml config file overlaid on the preset"
    )
    common.add_argument(
        "--set", dest="overrides", action="append", metavar="SECTION.FIELD=VALUE",
        help="dotted-path config override (repeatable); wins over preset and --config",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, experiment: bool = True) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, help=help, parents=[common] if experiment else [])

    bundle_help = "directory of a bundle saved by `train` (optional)"
    methods = {"nargs": "+", "default": _DEFAULT_METHODS, "choices": [*METHODS, "MS/Oracle"]}

    run = command("run", "resolve a config, run the full pipeline, print the method comparison")
    run.add_argument("--bundle", type=Path, help="load a saved bundle instead of training")
    run.add_argument("--output", type=Path, help="also save the trained bundle here")
    run.add_argument("--methods", help="methods to evaluate", **methods)
    train = command("train", "run the full pipeline and save the bundle")
    train.add_argument("--output", type=Path, required=True, help="directory for the bundle")
    evaluate = command("evaluate", "evaluate methods on the validation split")
    evaluate.add_argument("--bundle", type=Path, help=bundle_help)
    evaluate.add_argument("--methods", help="methods to evaluate", **methods)
    command("labels", "print the optimal-scale label distribution")

    # Workload arguments; the deployment flags are the aliases added below.
    serve = command("serve", "run the multi-stream inference server under a synthetic load")
    serve.add_argument("--bundle", type=Path, help=bundle_help)
    serve.add_argument("--streams", type=int, default=4, help="concurrent video streams")
    serve.add_argument("--frames", type=int, help="frames per stream (default: snippet length)")
    serve.add_argument(
        "--pattern", choices=ARRIVAL_PATTERNS.names(), default="poisson",
        help="arrival process of the synthetic load",
    )
    serve.add_argument("--rate", type=float, default=30.0, help="per-stream arrivals (frames/s)")
    serve.add_argument(
        "--time-scale", type=float, default=0.0,
        help="replay speed: 0 = as fast as backpressure allows, 1 = real-time arrivals",
    )
    cluster = command("cluster", "run a sharded serving cluster through a trace-driven scenario")
    cluster.add_argument("--bundle", type=Path, help=bundle_help)
    cluster.add_argument(
        "--scenario", choices=CLUSTER_SCENARIOS.names(), default="flash_crowd",
        help="workload scenario from the catalog (see repro.cluster.scenarios)",
    )
    cluster.add_argument("--duration", type=float, default=30.0, help="horizon in (virtual) s")
    cluster.add_argument("--streams", type=int, default=8, help="baseline concurrent streams")
    cluster.add_argument("--rate", type=float, default=30.0, help="per-stream arrivals (frames/s)")
    cluster.add_argument(
        "--peak", type=float, default=4.0,
        help="peak intensity as a multiple of baseline (crowd size / surge factor)",
    )
    cluster.add_argument(
        "--no-calibrate", action="store_true",
        help="simulate with the analytic area-proportional service model instead of timing "
        "the trained detector (skips training entirely)",
    )
    cluster.add_argument("--trace", type=Path, help="replay a recorded JSONL trace instead")
    cluster.add_argument("--save-trace", type=Path, help="also save the generated trace as JSONL")
    cluster.add_argument(
        "--time-scale", type=float, default=0.25,
        help="process-mode replay speed: 1 = real-time arrivals, 0 = as fast as possible",
    )
    cluster.add_argument("--output", type=Path, help="also write the cluster report as JSON")
    for sub, aliases in ((serve, SERVE_ALIASES), (cluster, CLUSTER_ALIASES)):
        for alias in aliases:
            value = "=true" if alias.options is _SWITCH else ""
            where = f" [--set {alias.to}{value}]" if isinstance(alias.to, str) else ""
            sub.add_argument(alias.flag, action=_Given, help=alias.help + where, **alias.options)

    obs = command("obs", "summarize or export a span log from a traced run", experiment=False)
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_commands.add_parser(
        "summarize", help="rollup tables, decisions and SLO burn rates for a span log"
    )
    export = obs_commands.add_parser("export", help="convert a span log to a viewer/scrape format")
    for sub in (summarize, export):
        sub.add_argument("input", type=Path, help="JSONL span log (from --span-log)")
    summarize.add_argument(
        "--target-p95-ms", type=float, default=250.0,
        help="latency target the burn-rate series is computed against",
    )
    summarize.add_argument(
        "--burn-by", choices=("stream", "shard"), default="shard",
        help="entity the burn-rate series is keyed by",
    )
    export.add_argument(
        "--format", choices=("chrome-trace", "prometheus"), required=True,
        help="chrome-trace: chrome://tracing / Perfetto JSON; prometheus: text exposition",
    )
    export.add_argument("--output", type=Path, required=True, help="file the export goes to")

    config = command("config", "show, save or check declarative configs")
    config.add_argument("--format", choices=("toml", "json"), default="toml", help="--show format")
    config.add_argument("--save", type=Path, help="write the resolved config to .json/.toml")
    config.add_argument(
        "--check", action="store_true",
        help="round-trip every registered preset through dict/JSON/TOML and fail on drift",
    )

    bench = command("bench", "run the benchmark harness (BENCH_*.json results)", experiment=False)
    bench.add_argument("--all", action="store_true", help="run every benchmark (the default)")
    bench.add_argument(
        "--only", nargs="+", metavar="NAME", help="run only these benchmarks (see --list)"
    )
    bench.add_argument(
        "--fast", action="store_true", help="smoke mode: short schedules (REPRO_BENCH_FAST=1)"
    )
    bench.add_argument("--list", action="store_true", help="list the benchmarks and exit")
    bench.add_argument(
        "--bench-dir", type=Path, default=Path("benchmarks"), help="the benchmark suite"
    )
    bench.add_argument("--results-dir", type=Path, help="default: <bench-dir>/results")
    bench.add_argument(
        "--compare", action="store_true",
        help="gate existing BENCH_*.json results against committed baselines instead of "
        "running benchmarks; exits non-zero on gate violations",
    )
    bench.add_argument(
        "--baseline-dir", type=Path, help="baselines for --compare (default: <bench-dir>/baselines)"
    )
    return parser


# -- config/pipeline resolution ----------------------------------------------
def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """preset < --config file < --set < alias flags, validated once at the end.

    Only the alias flags actually given on the command line apply, in table
    order, each through the same dotted-path machinery as ``--set``.
    """
    given = getattr(args, "given", ())
    try:
        config = api.load_experiment_config(
            preset=args.preset,
            config_file=getattr(args, "config", None),
            overrides=getattr(args, "overrides", None) or (),
            seed=args.seed,
            validate=False,
        )
        for alias in ALIASES.get(args.command, ()):
            if alias.dest in given:
                config = apply_overrides(config, alias.overrides(getattr(args, alias.dest), config))
        config.validate()
    except (KeyError, TypeError, ValueError, OSError, RuntimeError) as exc:
        raise SystemExit(f"repro: config error: {exc}") from exc
    return config


def _config_source(args: argparse.Namespace) -> str:
    parts = [f"preset '{args.preset}'"]
    config_file = getattr(args, "config", None)
    if config_file is not None:
        parts.append(f"config {config_file}")
    for expression in getattr(args, "overrides", None) or ():
        parts.append(f"--set {expression}")
    return ", ".join(parts)


def _dataset_cls(args: argparse.Namespace, config: ExperimentConfig) -> type:
    # A --config/--set override of dataset.name wins over the preset's
    # dataset; unregistered names keep the preset's dataset class.
    if config.dataset.name in api.DATASETS:
        return api.DATASETS.get(config.dataset.name)
    return EXPERIMENT_PRESETS.get(args.preset).dataset_cls


def _pipeline(args: argparse.Namespace) -> api.Pipeline:
    config = _resolve_config(args)
    bundle_dir = getattr(args, "bundle", None)
    if bundle_dir is not None:
        return api.Pipeline.from_bundle(bundle_dir, config, _dataset_cls(args, config))
    return api.Pipeline.from_config(config, dataset=_dataset_cls(args, config))


def _telemetry(config: ExperimentConfig) -> TelemetryConfig | None:
    """The run's tracing config, or None when ``telemetry.enabled`` is off."""
    if not config.telemetry.enabled:
        return None
    # Exports want the whole run, not the last ring-full of it.
    return config.telemetry.with_(ring_capacity=max(config.telemetry.ring_capacity, 262_144))


def _write_traces(args: argparse.Namespace, config: ExperimentConfig, events) -> None:
    if config.telemetry.enabled and config.telemetry.jsonl_path:
        print(f"Wrote telemetry span log ({len(events)} events) to {config.telemetry.jsonl_path}")
    if args.export_trace is not None:
        from repro.observability import write_chrome_trace

        path = write_chrome_trace(args.export_trace, events)
        print(f"Wrote Chrome trace ({len(events)} events) to {path}")


# -- commands ----------------------------------------------------------------
def _run_run(args: argparse.Namespace) -> int:
    pipeline = _pipeline(args)
    if args.output is not None:
        path = pipeline.save_bundle(args.output)
        print(f"Saved trained bundle to {path}")
    report = pipeline.evaluate(args.methods)
    print(report.format(title=f"AdaScale evaluation — {_config_source(args)}"))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve a synthetic load with the resolved ``serving``/``telemetry`` config.

    The serving and tracing flags are aliases (``SERVE_ALIASES``) already
    folded into the config; only the workload arguments (streams, frames,
    pattern, rate, time scale) and the Chrome-trace path are read here.
    """
    if args.streams < 1:
        raise SystemExit(f"repro serve: error: --streams must be >= 1, got {args.streams}")
    if args.frames is not None and args.frames < 1:
        raise SystemExit(f"repro serve: error: --frames must be >= 1, got {args.frames}")
    pipeline = _pipeline(args)
    config = pipeline.config
    with api.Server(pipeline.bundle, serving=config.serving) as server:
        try:
            report = server.serve_load(
                streams=args.streams,
                frames_per_stream=args.frames,
                pattern=args.pattern,
                rate_fps=args.rate,
                time_scale=args.time_scale,
                seed=args.seed if args.seed is not None else 0,
                telemetry=_telemetry(config),
            )
        except ValueError as exc:
            raise SystemExit(f"repro serve: error: {exc}") from exc
    print(
        report.format(
            title=(
                f"Serving telemetry — {_config_source(args)}, {args.streams} streams, "
                f"{args.pattern} arrivals, policy {config.serving.backpressure}"
            )
        )
    )
    _write_traces(args, config, report.trace_events)
    return 0


def _run_cluster(args: argparse.Namespace) -> int:
    """Run a scenario on the deployment the resolved ``cluster`` section names.

    The deployment flags are aliases (``CLUSTER_ALIASES``) already folded
    into the config, and :meth:`repro.api.Cluster.from_config` reads
    ``config.cluster``.  Only the workload (``--scenario``/``--duration``/
    ``--streams``/``--rate``/``--peak``/``--trace``) and the run's outputs
    are command arguments.
    """
    from repro.cluster import ScenarioConfig, WorkloadTrace, build_scenario

    config = _resolve_config(args)
    if args.trace is not None:
        workload: ScenarioConfig | WorkloadTrace = WorkloadTrace.load_jsonl(args.trace)
    else:
        scenario = ScenarioConfig(
            name=args.scenario,
            duration_s=args.duration,
            num_streams=args.streams,
            rate_fps=args.rate,
            peak_multiplier=args.peak,
            seed=args.seed if args.seed is not None else 0,
        )
        try:
            workload = build_scenario(scenario)
        except ValueError as exc:
            raise SystemExit(f"repro cluster: error: {exc}") from exc
    if args.save_trace is not None:
        path = workload.save_jsonl(args.save_trace)
        print(f"Saved workload trace ({len(workload)} events) to {path}")

    facade = api.Cluster.from_config(
        config,
        bundle_dir=args.bundle,
        dataset=_dataset_cls(args, config),
        calibrate=not args.no_calibrate,
    )
    report = facade.run_scenario(workload, time_scale=args.time_scale, telemetry=_telemetry(config))
    print(
        report.format(
            title=(
                f"Cluster report — {_config_source(args)}, scenario {workload.name}, "
                f"{config.cluster.num_shards} shards, {config.cluster.mode}"
            )
        )
    )
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")
        print(f"\nWrote cluster report JSON to {args.output}")
    _write_traces(args, config, report.trace_events)
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    from repro.observability import (
        burn_rate_series,
        events_to_metrics,
        load_span_log,
        shard_rollup,
        stage_rollup,
        to_prometheus_text,
        write_chrome_trace,
    )

    try:
        events = load_span_log(args.input)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"repro obs: error: cannot read span log {args.input}: {exc}") from exc
    if not events:
        raise SystemExit(f"repro obs: error: span log {args.input} holds no events")

    if args.obs_command == "export":
        if args.format == "chrome-trace":
            path = write_chrome_trace(args.output, events)
        else:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(to_prometheus_text(events_to_metrics(events)))
            path = args.output
        print(f"Wrote {args.format} export ({len(events)} events) to {path}")
        return 0

    # summarize
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    traces = len({event.trace_id for event in events if event.trace_id})
    first = min(event.start_s for event in events)
    last = max(event.start_s + event.duration_s for event in events)
    overview_rows = [
        ["events", str(len(events))],
        ["traced frames", str(traces)],
        *[[f"{kind} events", str(count)] for kind, count in sorted(kinds.items())],
        ["time span (s)", f"{last - first:.2f}"],
    ]
    sections = [
        format_table(["Quantity", "Value"], overview_rows, title=f"Span log — {args.input}")
    ]

    stages = stage_rollup(events)
    if stages:
        sections.append(
            format_table(
                ["Stage", "Count", "Total (s)", "Mean (ms)"],
                [
                    [name, str(row["count"]), f"{row['total_s']:.3f}", f"{row['mean_ms']:.2f}"]
                    for name, row in stages.items()
                ],
                title="Stage rollup (span totals)",
            )
        )

    shards = shard_rollup(events)
    if shards:
        sections.append(
            format_table(
                ["Shard", "Admitted", "Completed", "Shed", "Decisions", "Busy (s)"],
                [
                    [
                        str(shard_id),
                        str(int(row["admitted"])),
                        str(int(row["completed"])),
                        str(int(row["shed"])),
                        str(int(row["decisions"])),
                        f"{row['busy_s']:.3f}",
                    ]
                    for shard_id, row in shards.items()
                ],
                title="Shard rollup",
            )
        )

    # Process-mode logs: rebased child events carry the worker's real OS pid
    # and respawn generation, so the fleet shape is recoverable from the log.
    fleet: dict[tuple[int, int, int], int] = {}
    for event in events:
        os_pid = event.attrs.get("os_pid")
        if isinstance(os_pid, int) and os_pid > 0:
            key = (event.shard_id, int(os_pid), int(event.attrs.get("generation", 0)))
            fleet[key] = fleet.get(key, 0) + 1
    if fleet:
        sections.append(
            format_table(
                ["Shard", "Worker pid", "Generation", "Events"],
                [
                    [str(shard), str(pid), str(generation), str(count)]
                    for (shard, pid, generation), count in sorted(fleet.items())
                ],
                title="Process fleet (from rebased child events)",
            )
        )

    supervisor = [
        event for event in events
        if event.kind == "span" and event.name.startswith("supervisor/")
    ]
    if supervisor:
        lines = []
        for event in sorted(supervisor, key=lambda event: event.start_s):
            detail = ", ".join(
                f"{key}={value}"
                for key, value in sorted(event.attrs.items())
                if value not in ("", None)
            )
            lines.append(
                f"  t={event.start_s:12.2f}s shard {event.shard_id}: "
                f"{event.name} ({event.duration_s * 1000.0:.1f} ms{', ' + detail if detail else ''})"
            )
        sections.append("Supervisor timeline (crash / migrate / respawn):\n" + "\n".join(lines))

    decisions = [event for event in events if event.kind == "decision"]
    if decisions:
        lines = [
            f"  t={event.start_s:8.2f}s shard {event.shard_id}: {event.name} "
            f"{event.attrs.get('knob', '?')} {event.attrs.get('old', '?')} -> "
            f"{event.attrs.get('new', '?')} ({event.attrs.get('reason', '')})"
            for event in sorted(decisions, key=lambda event: event.start_s)
        ]
        sections.append("Control decisions:\n" + "\n".join(lines))

    burn = burn_rate_series(events, target_ms=args.target_p95_ms, key=args.burn_by)
    if burn:
        sections.append(
            format_table(
                [args.burn_by.capitalize(), "Buckets", "Completions", "Mean burn", "Max burn"],
                [
                    [
                        str(entity),
                        str(len(series)),
                        str(sum(total for _, _, total in series)),
                        f"{sum(rate for _, rate, _ in series) / len(series):.3f}",
                        f"{max(rate for _, rate, _ in series):.3f}",
                    ]
                    for entity, series in burn.items()
                ],
                title=f"SLO burn rate (target {args.target_p95_ms:.0f} ms, 1 s buckets)",
            )
        )

    print("\n\n".join(sections))
    return 0


def _run_config(args: argparse.Namespace) -> int:
    if args.check:
        return _check_presets()
    config = _resolve_config(args)
    if args.save is not None:
        try:
            path = config.save(args.save)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"repro config: error: {exc}") from exc
        print(f"Saved resolved config to {path}")
        return 0
    if args.format == "json":
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    else:
        print(dumps_toml(config.to_dict()), end="")
    return 0


def _check_presets() -> int:
    """Round-trip every registered preset; non-zero exit on any drift."""
    rows = []
    failures = 0
    for name in EXPERIMENT_PRESETS.names():
        preset = EXPERIMENT_PRESETS.get(name)
        problems = []
        try:
            config = preset.build_config()
            config.validate()
            if ExperimentConfig.from_dict(config.to_dict()) != config:
                problems.append("dict round-trip drift")
            if ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) != config:
                problems.append("json round-trip drift")
            if toml_supported():
                if ExperimentConfig.from_dict(loads_toml(dumps_toml(config.to_dict()))) != config:
                    problems.append("toml round-trip drift")
            if preset.dataset not in api.DATASETS:
                problems.append(f"unknown dataset {preset.dataset!r}")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the check
            problems.append(f"{type(exc).__name__}: {exc}")
        status = "ok" if not problems else "; ".join(problems)
        failures += bool(problems)
        rows.append([name, preset.dataset, status])
    print(
        format_table(
            ["Preset", "Dataset", "Round-trip"],
            rows,
            title="Config schema check (dict / JSON / TOML round-trips)",
        )
    )
    if failures:
        print(f"\n{failures} preset(s) failed the schema check")
        return 1
    print("\nall presets round-trip losslessly")
    return 0


# -- bench -------------------------------------------------------------------
def _discover_benchmarks(bench_dir: Path) -> dict[str, Path]:
    """Benchmark name -> module path for every ``benchmarks/test_*.py``."""
    return {
        path.stem.removeprefix("test_"): path
        for path in sorted(bench_dir.glob("test_*.py"))
    }


def _invoke_pytest(paths: list[str], extra_args: list[str]) -> int:
    """Run pytest in-process over the benchmark modules (separable for tests)."""
    import pytest

    return int(pytest.main([*paths, "-q", "-s", *extra_args]))


def _run_bench(args: argparse.Namespace) -> int:
    from repro.profiling import compare_dirs, load_bench_json

    bench_dir: Path = args.bench_dir
    results_dir: Path = args.results_dir or bench_dir / "results"
    baseline_dir: Path = args.baseline_dir or bench_dir / "baselines"

    if args.all and args.only:
        raise SystemExit("repro bench: error: --all and --only are mutually exclusive")
    if args.compare:
        if args.only or args.fast or args.list:
            raise SystemExit(
                "repro bench: error: --compare takes no run options (--only/--fast/--list)"
            )
        report = compare_dirs(results_dir, baseline_dir)
        print(report.format())
        return 0 if report.ok else 1

    if not bench_dir.is_dir():
        raise SystemExit(f"repro bench: error: benchmark directory {bench_dir} not found")
    benchmarks = _discover_benchmarks(bench_dir)
    if args.list:
        print(
            format_table(
                ["Benchmark", "Module"],
                [[name, str(path)] for name, path in benchmarks.items()],
                title=f"Available benchmarks under {bench_dir}",
            )
        )
        return 0

    if args.only:
        unknown = sorted(set(args.only) - set(benchmarks))
        if unknown:
            raise SystemExit(
                f"repro bench: error: unknown benchmark(s) {', '.join(unknown)}; "
                f"available: {', '.join(benchmarks)}"
            )
        selection = [name for name in benchmarks if name in set(args.only)]
    else:
        selection = list(benchmarks)

    extra_args: list[str] = []
    overrides: dict[str, str] = {"REPRO_BENCH_RESULTS": str(results_dir)}
    if args.fast:
        overrides["REPRO_BENCH_FAST"] = "1"
        # Smoke runs want one sample per pytest-benchmark site, not a
        # calibrated timing loop; the JSON artefacts carry the real numbers.
        extra_args.append("--benchmark-disable")

    # The env vars are how benchmarks/conftest.py picks the settings up; keep
    # the mutation scoped to this invocation so nothing leaks into the rest of
    # the process.  (Caveat: conftest freezes them at import, so within one
    # process the first bench run's settings win — run-per-process as CI does.)
    previous = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        exit_code = _invoke_pytest([str(benchmarks[name]) for name in selection], extra_args)
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    # Summarise the machine-readable artefacts regardless of test outcome.
    rows = []
    invalid = 0
    artefacts = sorted(results_dir.glob("BENCH_*.json")) if results_dir.is_dir() else []
    for path in artefacts:
        try:
            payload = load_bench_json(path)
            status = "ok"
            keys = ", ".join(sorted(payload["data"])) or "-"
        except ValueError as exc:
            status = f"INVALID ({exc})"
            keys = "-"
            invalid += 1
        rows.append([path.name, status, keys])
    if rows:
        print()
        print(
            format_table(
                ["Artefact", "Schema", "Data keys"],
                rows,
                title=f"Machine-readable results under {results_dir}",
            )
        )
    else:
        invalid = 1
        _LOGGER.warning("no BENCH_*.json artefacts found under %s", results_dir)
    # A passing pytest run with unusable machine-readable output is a failure:
    # the artefacts are the product here.
    return exit_code if exit_code != 0 else (1 if invalid else 0)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        return _run_run(args)

    if args.command == "train":
        pipeline = _pipeline(args)
        path = pipeline.save_bundle(args.output)
        print(f"Saved trained bundle to {path}")
        print(f"Optimal-scale label distribution: {pipeline.bundle.labels.distribution()}")
        return 0

    if args.command == "evaluate":
        pipeline = _pipeline(args)
        report = pipeline.evaluate(args.methods)
        print(report.format(title=f"AdaScale evaluation — {_config_source(args)}"))
        return 0

    if args.command == "labels":
        pipeline = _pipeline(args)
        distribution = pipeline.bundle.labels.distribution()
        rows = [
            [scale, f"{100 * fraction:.1f}"]
            for scale, fraction in sorted(distribution.items(), reverse=True)
        ]
        print(
            format_table(
                ["optimal scale", "fraction of frames (%)"],
                rows,
                title="Optimal-scale label distribution (training split)",
            )
        )
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "cluster":
        return _run_cluster(args)

    if args.command == "obs":
        return _run_obs(args)

    if args.command == "config":
        return _run_config(args)

    if args.command == "bench":
        return _run_bench(args)

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
