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
from pathlib import Path

from repro import api
from repro.config import ExperimentConfig
from repro.configio import dumps_toml, loads_toml, toml_supported
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

__all__ = ["main", "build_parser"]

_LOGGER = get_logger(__name__)

_DEFAULT_METHODS = ["SS/SS", "MS/SS", "MS/AdaScale"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AdaScale (MLSys 2019) reproduction — training, evaluation and serving CLI",
    )
    parser.add_argument("--seed", type=int, default=None, help="experiment seed override")
    parser.add_argument(
        "--preset",
        choices=EXPERIMENT_PRESETS.names(),
        default="tiny",
        help="experiment preset: tiny (seconds), vid (SyntheticVID benchmark), ytbb (MiniYTBB)",
    )
    # The same flags are accepted after the subcommand (`repro serve --preset
    # tiny`); SUPPRESS keeps the subparser from clobbering a value given
    # before the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="experiment seed override"
    )
    common.add_argument(
        "--preset",
        choices=EXPERIMENT_PRESETS.names(),
        default=argparse.SUPPRESS,
        help="experiment preset",
    )
    common.add_argument(
        "--config",
        type=Path,
        default=argparse.SUPPRESS,
        help="a .json/.toml config file overlaid on the preset",
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="SECTION.FIELD=VALUE",
        default=argparse.SUPPRESS,
        help="dotted-path config override (repeatable); wins over preset and --config",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        help="resolve a config, run the full pipeline, and print the method comparison",
        parents=[common],
    )
    run.add_argument(
        "--bundle", type=Path, default=None, help="load a saved bundle instead of training"
    )
    run.add_argument(
        "--output", type=Path, default=None, help="also save the trained bundle here"
    )
    run.add_argument(
        "--methods",
        nargs="+",
        default=_DEFAULT_METHODS,
        choices=list(METHODS) + ["MS/Oracle"],
        help="methods to evaluate",
    )

    train = subparsers.add_parser(
        "train", help="run the full pipeline and save the bundle", parents=[common]
    )
    train.add_argument("--output", type=Path, required=True, help="directory for the saved bundle")

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate methods on the validation split", parents=[common]
    )
    evaluate.add_argument(
        "--bundle", type=Path, default=None, help="directory of a bundle saved by `train` (optional)"
    )
    evaluate.add_argument(
        "--methods",
        nargs="+",
        default=_DEFAULT_METHODS,
        choices=list(METHODS) + ["MS/Oracle"],
        help="methods to evaluate",
    )

    subparsers.add_parser(
        "labels", help="print the optimal-scale label distribution", parents=[common]
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-stream inference server under a synthetic load",
        parents=[common],
    )
    serve.add_argument(
        "--bundle", type=Path, default=None, help="directory of a bundle saved by `train` (optional)"
    )
    serve.add_argument("--streams", type=int, default=4, help="number of concurrent video streams")
    serve.add_argument(
        "--frames", type=int, default=None, help="frames per stream (default: snippet length)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads (default: preset); on a 2-core box 4 workers serve 0.9-0.95x "
        "the frames/s of 2 (4 streams, benchmarks/results/serving_throughput.txt)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=None, help="max micro-batch size (default: preset)"
    )
    serve.add_argument(
        "--queue", type=int, default=None, help="scheduler queue capacity (default: preset)"
    )
    serve.add_argument(
        "--policy",
        choices=SCHEDULER_POLICIES.names(),
        default=None,
        help="backpressure policy when the queue is full (default: preset)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="shed queued frames older than this deadline (default: none)",
    )
    serve.add_argument(
        "--pattern",
        choices=ARRIVAL_PATTERNS.names(),
        default="poisson",
        help="arrival process of the synthetic load",
    )
    serve.add_argument(
        "--rate", type=float, default=30.0, help="mean per-stream arrival rate (frames/s)"
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="replay speed: 0 = as fast as backpressure allows, 1 = real-time arrivals",
    )
    serve.add_argument(
        "--seqnms", action="store_true", help="apply Seq-NMS rescoring per stream at finalize"
    )
    serve.add_argument(
        "--key-frame-interval",
        type=int,
        default=None,
        help="Deep-Feature-Flow key-frame interval (1 = full detection every frame)",
    )
    serve.add_argument(
        "--quantize-scales",
        action="store_true",
        help=(
            "snap predicted scales to the regressor scale set so concurrent "
            "streams share scheduler batch buckets"
        ),
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help="trace the run: admission/queue/service spans and completions",
    )
    serve.add_argument(
        "--telemetry-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of frames to trace, deterministic per admission (default: 1.0)",
    )
    serve.add_argument(
        "--span-log",
        type=Path,
        default=None,
        help="write every captured event as JSONL here (implies --telemetry)",
    )
    serve.add_argument(
        "--export-trace",
        type=Path,
        default=None,
        help="write a Chrome trace-event JSON of the run here (implies --telemetry)",
    )

    cluster = subparsers.add_parser(
        "cluster",
        help="run a sharded serving cluster through a trace-driven scenario",
        parents=[common],
    )
    cluster.add_argument(
        "--bundle", type=Path, default=None, help="directory of a bundle saved by `train` (optional)"
    )
    cluster.add_argument("--shards", type=int, default=2, help="number of replica shards")
    cluster.add_argument(
        "--scenario",
        choices=CLUSTER_SCENARIOS.names(),
        default="flash_crowd",
        help="workload scenario from the catalog (see repro.cluster.scenarios)",
    )
    cluster.add_argument(
        "--mode",
        choices=("simulate", "process"),
        default="simulate",
        help=(
            "simulate: calibrated virtual-time engine (deterministic); "
            "process: one spawned OS process per shard (frames over framed "
            "pipes, crash supervision, stream migration)"
        ),
    )
    cluster.add_argument(
        "--inject-fault",
        metavar="SPEC",
        default=None,
        help=(
            "schedule a fault injection (process mode), e.g. "
            "kill-replica:shard=0,at=2.0 — SIGKILL shard 0's worker process "
            "2 s into the run; the supervisor must migrate and respawn"
        ),
    )
    cluster.add_argument(
        "--duration", type=float, default=30.0, help="scenario horizon in (virtual) seconds"
    )
    cluster.add_argument(
        "--streams", type=int, default=8, help="baseline concurrent streams of the scenario"
    )
    cluster.add_argument(
        "--rate", type=float, default=30.0, help="per-stream mean arrival rate (frames/s)"
    )
    cluster.add_argument(
        "--peak",
        type=float,
        default=4.0,
        help="peak workload intensity as a multiple of baseline (crowd size / surge factor)",
    )
    cluster.add_argument(
        "--router",
        choices=ROUTING_POLICIES.names(),
        default="least-loaded",
        help="stream placement policy",
    )
    cluster.add_argument(
        "--target-p95-ms",
        type=float,
        default=250.0,
        help="the ScaleGovernor's rolling-p95 SLO target",
    )
    cluster.add_argument(
        "--no-governor",
        action="store_true",
        help="disable the SLO feedback loop (open-loop full-quality serving)",
    )
    cluster.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the occupancy autoscaler (shard add/drain)",
    )
    cluster.add_argument(
        "--no-calibrate",
        action="store_true",
        help=(
            "simulate with the analytic area-proportional service model instead "
            "of timing the trained detector (skips training entirely)"
        ),
    )
    cluster.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="replay a recorded JSONL trace instead of generating the scenario",
    )
    cluster.add_argument(
        "--save-trace",
        type=Path,
        default=None,
        help="also save the generated workload trace as JSONL (replayable via --trace)",
    )
    cluster.add_argument(
        "--time-scale",
        type=float,
        default=0.25,
        help=(
            "process-mode replay speed: 1 = real-time arrivals, 0 = as fast "
            "as possible (simulate runs on virtual time)"
        ),
    )
    cluster.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the cluster report as JSON",
    )
    cluster.add_argument(
        "--telemetry",
        action="store_true",
        help="trace the run: admission/queue/service spans, completions, governor decisions",
    )
    cluster.add_argument(
        "--telemetry-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of frames to trace, deterministic per admission (default: 1.0)",
    )
    cluster.add_argument(
        "--span-log",
        type=Path,
        default=None,
        help="write every captured event as JSONL here (implies --telemetry)",
    )
    cluster.add_argument(
        "--export-trace",
        type=Path,
        default=None,
        help="write a Chrome trace-event JSON of the run here (implies --telemetry)",
    )

    obs = subparsers.add_parser(
        "obs",
        help="summarize or export a telemetry span log from a traced run",
    )
    obs_subparsers = obs.add_subparsers(dest="obs_command", required=True)
    obs_summarize = obs_subparsers.add_parser(
        "summarize", help="rollup tables, decisions and SLO burn rates for a span log"
    )
    obs_summarize.add_argument("input", type=Path, help="JSONL span log (from --span-log)")
    obs_summarize.add_argument(
        "--target-p95-ms",
        type=float,
        default=250.0,
        help="latency target the burn-rate series is computed against",
    )
    obs_summarize.add_argument(
        "--burn-by",
        choices=("stream", "shard"),
        default="shard",
        help="entity the burn-rate series is keyed by",
    )
    obs_export = obs_subparsers.add_parser(
        "export", help="convert a span log to a viewer/scrape format"
    )
    obs_export.add_argument("input", type=Path, help="JSONL span log (from --span-log)")
    obs_export.add_argument(
        "--format",
        choices=("chrome-trace", "prometheus"),
        required=True,
        help="chrome-trace: chrome://tracing / Perfetto JSON; prometheus: text exposition",
    )
    obs_export.add_argument(
        "--output", type=Path, required=True, help="file the export is written to"
    )

    config_cmd = subparsers.add_parser(
        "config",
        help="show, save or check declarative configs",
        parents=[common],
    )
    config_cmd.add_argument(
        "--format", choices=("toml", "json"), default="toml", help="--show output format"
    )
    config_cmd.add_argument(
        "--save", type=Path, default=None, help="write the resolved config to a .json/.toml file"
    )
    config_cmd.add_argument(
        "--check",
        action="store_true",
        help="round-trip every registered preset through dict/JSON/TOML and fail on drift",
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the benchmark harness and write machine-readable BENCH_*.json results",
    )
    bench.add_argument(
        "--all",
        action="store_true",
        help="run every benchmark (the default when --only is not given)",
    )
    bench.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        default=None,
        help="run only the named benchmarks (names as printed by --list)",
    )
    bench.add_argument(
        "--fast",
        action="store_true",
        help="smoke mode: shrink training schedules (sets REPRO_BENCH_FAST=1)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list the available benchmarks and exit"
    )
    bench.add_argument(
        "--bench-dir",
        type=Path,
        default=Path("benchmarks"),
        help="directory holding the benchmark suite (default: ./benchmarks)",
    )
    bench.add_argument(
        "--results-dir",
        type=Path,
        default=None,
        help="where results are written/read (default: <bench-dir>/results)",
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help=(
            "compare existing BENCH_*.json results against committed baselines "
            "instead of running benchmarks; exits non-zero on gate violations"
        ),
    )
    bench.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help="baseline artefacts for --compare (default: <bench-dir>/baselines)",
    )
    return parser


# -- config/pipeline resolution ----------------------------------------------
def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """preset < --config file < --set overrides, via the api facade."""
    try:
        return api.load_experiment_config(
            preset=args.preset,
            config_file=getattr(args, "config", None),
            overrides=getattr(args, "overrides", None) or (),
            seed=args.seed,
        )
    except (KeyError, TypeError, ValueError, OSError, RuntimeError) as exc:
        raise SystemExit(f"repro: config error: {exc}") from exc


def _config_source(args: argparse.Namespace) -> str:
    parts = [f"preset '{args.preset}'"]
    config_file = getattr(args, "config", None)
    if config_file is not None:
        parts.append(f"config {config_file}")
    for expression in getattr(args, "overrides", None) or ():
        parts.append(f"--set {expression}")
    return ", ".join(parts)


def _pipeline(args: argparse.Namespace) -> api.Pipeline:
    config = _resolve_config(args)
    # A --config/--set override of dataset.name wins over the preset's
    # dataset; unregistered names keep the preset's dataset class.
    if config.dataset.name in api.DATASETS:
        dataset_cls = api.DATASETS.get(config.dataset.name)
    else:
        dataset_cls = EXPERIMENT_PRESETS.get(args.preset).dataset_cls
    bundle_dir = getattr(args, "bundle", None)
    if bundle_dir is not None:
        return api.Pipeline.from_bundle(bundle_dir, config, dataset_cls)
    return api.Pipeline.from_config(config, dataset=dataset_cls)


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
    if args.streams < 1:
        raise SystemExit(f"repro serve: error: --streams must be >= 1, got {args.streams}")
    if args.frames is not None and args.frames < 1:
        raise SystemExit(f"repro serve: error: --frames must be >= 1, got {args.frames}")
    if args.quantize_scales:
        overrides = list(getattr(args, "overrides", None) or ())
        overrides.append("adascale.quantize_predicted_scale=true")
        args.overrides = overrides
    pipeline = _pipeline(args)
    serving = pipeline.config.serving
    flag_overrides = {
        "num_workers": args.workers,
        "max_batch_size": args.batch_size,
        "queue_capacity": args.queue,
        "backpressure": args.policy,
        "deadline_ms": args.deadline_ms,
        "key_frame_interval": args.key_frame_interval,
    }
    serving = serving.with_(**{k: v for k, v in flag_overrides.items() if v is not None})
    if args.seqnms:
        serving = serving.with_(use_seqnms=True)

    telemetry = None
    if args.telemetry or args.span_log is not None or args.export_trace is not None:
        try:
            telemetry = pipeline.config.telemetry.with_(
                enabled=True,
                sample_rate=args.telemetry_sample,
                jsonl_path=str(args.span_log) if args.span_log is not None else "",
                # Exports want the whole run, not the last ring-full of it.
                ring_capacity=max(pipeline.config.telemetry.ring_capacity, 262_144),
            )
            telemetry.validate()
        except ValueError as exc:
            raise SystemExit(f"repro serve: error: {exc}") from exc

    with api.Server(pipeline.bundle, serving=serving) as server:
        report = server.serve_load(
            streams=args.streams,
            frames_per_stream=args.frames,
            pattern=args.pattern,
            rate_fps=args.rate,
            time_scale=args.time_scale,
            seed=args.seed if args.seed is not None else 0,
            telemetry=telemetry,
        )
    print(
        report.format(
            title=(
                f"Serving telemetry — {_config_source(args)}, {args.streams} streams, "
                f"{args.pattern} arrivals, policy {serving.backpressure}"
            )
        )
    )
    if args.span_log is not None:
        print(f"Wrote telemetry span log ({len(report.trace_events)} events) to {args.span_log}")
    if args.export_trace is not None:
        from repro.observability import write_chrome_trace

        path = write_chrome_trace(args.export_trace, report.trace_events)
        print(f"Wrote Chrome trace ({len(report.trace_events)} events) to {path}")
    return 0


def _run_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import (
        ClusterConfig,
        ScenarioConfig,
        WorkloadTrace,
        analytic_service_model,
        build_scenario,
        parse_fault_spec,
    )

    if args.shards < 1:
        raise SystemExit(f"repro cluster: error: --shards must be >= 1, got {args.shards}")
    fault = ClusterConfig().fault
    if args.inject_fault is not None:
        try:
            fault = parse_fault_spec(args.inject_fault)
        except ValueError as exc:
            raise SystemExit(f"repro cluster: error: {exc}") from exc
    config = _resolve_config(args)
    seed = args.seed if args.seed is not None else 0
    cluster_config = ClusterConfig(
        num_shards=args.shards,
        mode=args.mode,
        router=ClusterConfig().router.with_(policy=args.router),
        governor=ClusterConfig().governor.with_(
            enabled=not args.no_governor, target_p95_ms=args.target_p95_ms
        ),
        autoscaler=ClusterConfig().autoscaler.with_(
            enabled=args.autoscale, max_shards=max(args.shards * 4, 8)
        ),
        fault=fault,
    )
    try:
        cluster_config.validate()
    except ValueError as exc:
        raise SystemExit(f"repro cluster: error: {exc}") from exc

    if args.trace is not None:
        workload: ScenarioConfig | WorkloadTrace = WorkloadTrace.load_jsonl(args.trace)
        scenario_name = workload.name
    else:
        scenario = ScenarioConfig(
            name=args.scenario,
            duration_s=args.duration,
            num_streams=args.streams,
            rate_fps=args.rate,
            peak_multiplier=args.peak,
            seed=seed,
        )
        try:
            workload = build_scenario(scenario)
        except ValueError as exc:
            raise SystemExit(f"repro cluster: error: {exc}") from exc
        scenario_name = scenario.name
    if args.save_trace is not None:
        path = workload.save_jsonl(args.save_trace)
        print(f"Saved workload trace ({len(workload)} events) to {path}")

    telemetry = None
    if args.telemetry or args.span_log is not None or args.export_trace is not None:
        try:
            telemetry = config.telemetry.with_(
                enabled=True,
                sample_rate=args.telemetry_sample,
                jsonl_path=str(args.span_log) if args.span_log is not None else "",
                # Exports want the whole run, not the last ring-full of it.
                ring_capacity=max(config.telemetry.ring_capacity, 262_144),
            )
            telemetry.validate()
        except ValueError as exc:
            raise SystemExit(f"repro cluster: error: {exc}") from exc

    if args.mode == "simulate" and args.no_calibrate:
        # Pure simulation: analytic service model, no training at all.
        facade = api.Cluster(
            cluster=cluster_config,
            serving=config.serving,
            adascale=config.adascale,
            service_model=analytic_service_model(config.adascale),
        )
    else:
        pipeline = _pipeline(args)
        facade = api.Cluster(
            bundle=pipeline.bundle,
            cluster=cluster_config,
            serving=config.serving,
            adascale=config.adascale,
        )
        if args.bundle is not None:
            # Process-mode replicas load straight from the saved bundle
            # instead of re-saving it to a temporary directory.
            facade._bundle_dir = str(args.bundle)
    report = facade.run_scenario(
        workload, time_scale=args.time_scale, telemetry=telemetry
    )
    print(
        report.format(
            title=(
                f"Cluster report — {_config_source(args)}, scenario {scenario_name}, "
                f"{args.shards} shards, {args.mode}"
            )
        )
    )
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
        )
        print(f"\nWrote cluster report JSON to {args.output}")
    if args.span_log is not None:
        print(f"Wrote telemetry span log ({len(report.trace_events)} events) to {args.span_log}")
    if args.export_trace is not None:
        from repro.observability import write_chrome_trace

        path = write_chrome_trace(args.export_trace, report.trace_events)
        print(f"Wrote Chrome trace ({len(report.trace_events)} events) to {path}")
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
