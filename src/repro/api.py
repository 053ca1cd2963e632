"""The stable public facade of the reproduction.

Everything a user script, the CLI, the examples and the benchmarks need is
reachable from here, in declarative form:

* :func:`load_experiment_config` — merge a named preset, an optional
  ``.json``/``.toml`` config file and dotted ``--set``-style overrides into a
  validated :class:`~repro.config.ExperimentConfig` (precedence: preset <
  file < overrides);
* :class:`Pipeline` — train/evaluate an experiment
  (``Pipeline.from_config("tiny").run()``), returning typed results;
* :class:`Server` — stand up the multi-stream inference server over a trained
  bundle and replay synthetic load (``Server.from_config(...)``), returning a
  typed :class:`ServeReport`;
* the component registries (:data:`DATASETS`, :data:`ACCELERATORS`,
  :data:`ROUTING_POLICIES`, …) and :func:`build_from_cfg` for
  ``{"type": name, **kwargs}`` specs.

Importing this module loads every built-in component module, so all registry
names resolve without further imports.

Typical use::

    from repro import api

    config = api.load_experiment_config("tiny", overrides=["serving.num_workers=4"])
    pipeline = api.Pipeline.from_config(config)
    bundle = pipeline.run()
    print(pipeline.evaluate(["SS/SS", "MS/AdaScale"]).format())

    with api.Server(bundle) as server:
        report = server.serve_load(streams=4, pattern="poisson")
    print(report.format())
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.config import ExperimentConfig, ServingConfig, TelemetryConfig
from repro.observability.trace import SpanEvent, Tracer
from repro.configio import apply_overrides, deep_merge, load_config_file, split_override
from repro.core.pipeline import (
    METHODS,
    AdaScalePipeline,
    ExperimentBundle,
    MethodResult,
)
from repro.registries import (
    ACCELERATORS,
    ARRIVAL_PATTERNS,
    CLUSTER_SCENARIOS,
    DATASETS,
    EXPERIMENT_PRESETS,
    ROUTING_POLICIES,
    SCHEDULER_POLICIES,
    build_from_cfg,
    load_components,
)

load_components()

from repro.cluster import (  # noqa: E402  (after load_components)
    ClusterConfig,
    ClusterController,
    ClusterReport,
    ScenarioConfig,
    ServiceModel,
    WorkloadTrace,
    analytic_service_model,
    calibrate_service_model,
)
from repro.presets import ExperimentPreset  # noqa: E402
from repro.serving import (  # noqa: E402
    InferenceServer,
    LoadGenerator,
    round_robin_streams,
)
from repro.serving.metrics import TelemetrySnapshot  # noqa: E402
from repro.serving.session import StreamResult  # noqa: E402

__all__ = [
    "ACCELERATORS",
    "ARRIVAL_PATTERNS",
    "CLUSTER_SCENARIOS",
    "DATASETS",
    "EXPERIMENT_PRESETS",
    "METHODS",
    "ROUTING_POLICIES",
    "SCHEDULER_POLICIES",
    "Cluster",
    "ClusterConfig",
    "ClusterReport",
    "EvaluationReport",
    "MethodReport",
    "Pipeline",
    "ScenarioConfig",
    "ServeReport",
    "Server",
    "StreamReport",
    "TelemetryConfig",
    "Tracer",
    "build_from_cfg",
    "load_experiment_config",
    "round_robin_streams",
]


# -- config resolution -------------------------------------------------------
def load_experiment_config(
    preset: str | None = "tiny",
    config_file: str | Path | None = None,
    overrides: Iterable[str] | Mapping[str, Any] = (),
    seed: int | None = None,
    validate: bool = True,
) -> ExperimentConfig:
    """Resolve an experiment config from preset, file and overrides.

    Precedence is **preset < config file < overrides**: the named preset (or
    bare defaults when ``preset`` is None) forms the base, a ``.json`` or
    ``.toml`` file overlays it section by section, and dotted-path overrides
    (either ``"a.b=c"`` strings or a ``{"a.b": value}`` mapping) win last.
    ``seed`` overlays every per-stage seed when given; ``None`` keeps the
    seeds the preset/file declare.
    """
    base = (
        EXPERIMENT_PRESETS.get(preset)
        if preset is not None
        else ExperimentPreset(name="default")
    )
    config = base.build_config(seed)
    if config_file is not None:
        merged = deep_merge(config.to_dict(), load_config_file(config_file))
        config = ExperimentConfig.from_dict(merged)
    override_map = _as_override_map(overrides)
    if override_map:
        config = apply_overrides(config, override_map)
    if validate:
        config.validate()
    return config


def _with_seed(config: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    """Overlay ``seed`` onto every per-stage seed field (None = keep as is)."""
    if seed is None:
        return config
    return apply_overrides(
        config,
        {"seed": seed, "dataset.seed": seed, "training.seed": seed, "regressor.seed": seed},
    )


def _as_override_map(overrides: Iterable[str] | Mapping[str, Any]) -> dict[str, Any]:
    if isinstance(overrides, Mapping):
        return dict(overrides)
    parsed: dict[str, Any] = {}
    for expression in overrides:
        path, raw = split_override(expression)
        parsed[path] = raw
    return parsed


def _resolve_dataset_cls(config: ExperimentConfig) -> type:
    """Dataset class for a config, resolved by ``config.dataset.name``."""
    if config.dataset.name in DATASETS:
        return DATASETS.get(config.dataset.name)
    from repro.data.synthetic_vid import SyntheticVID

    return SyntheticVID


# -- typed results -----------------------------------------------------------
@dataclass(frozen=True)
class MethodReport:
    """One evaluated method — a row of the paper's Table 1."""

    method: str
    mean_ap: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_scale: float

    @classmethod
    def from_result(cls, result: MethodResult) -> "MethodReport":
        return cls(
            method=result.name,
            mean_ap=float(result.mean_ap),
            p50_ms=float(result.runtime.median_ms),
            p95_ms=float(result.runtime.p95_ms),
            p99_ms=float(result.runtime.p99_ms),
            mean_scale=float(result.mean_scale),
        )


@dataclass(frozen=True)
class EvaluationReport:
    """Typed result of :meth:`Pipeline.evaluate`."""

    rows: tuple[MethodReport, ...]
    #: full per-method results (records, traces) for callers that need them
    results: Mapping[str, MethodResult]

    def __getitem__(self, method: str) -> MethodReport:
        for row in self.rows:
            if row.method == method:
                return row
        raise KeyError(f"method {method!r} not in report; have {[r.method for r in self.rows]}")

    def format(self, title: str = "AdaScale evaluation") -> str:
        """Render the Table-1-style comparison."""
        from repro.evaluation import format_table

        return format_table(
            ["Method", "mAP (%)", "Runtime p50 (ms)", "p95 (ms)", "p99 (ms)", "Mean scale"],
            [
                [
                    row.method,
                    f"{100 * row.mean_ap:.1f}",
                    f"{row.p50_ms:.1f}",
                    f"{row.p95_ms:.1f}",
                    f"{row.p99_ms:.1f}",
                    f"{row.mean_scale:.0f}",
                ]
                for row in self.rows
            ],
            title=title,
        )


@dataclass(frozen=True)
class StreamReport:
    """Per-stream outcome of a serving session."""

    stream_id: int
    completed: int
    shed: int
    scales_used: tuple[int, ...]

    @classmethod
    def from_result(cls, stream_id: int, result: StreamResult) -> "StreamReport":
        return cls(
            stream_id=stream_id,
            completed=result.completed,
            shed=result.shed,
            scales_used=tuple(result.scales_used),
        )


@dataclass(frozen=True)
class ServeReport:
    """Typed result of :meth:`Server.serve_load`."""

    telemetry: TelemetrySnapshot
    streams: tuple[StreamReport, ...]
    #: full per-stream results (detection records) for callers that need them
    results: Mapping[int, StreamResult]
    #: span/instant events captured when the run was traced (else empty)
    trace_events: tuple[SpanEvent, ...] = ()

    def format(self, title: str = "Serving telemetry") -> str:
        """Render the telemetry plus the per-stream adaptive-scale traces."""
        from repro.evaluation import format_table

        trace_rows = [
            [
                str(stream.stream_id),
                str(stream.completed),
                str(stream.shed),
                " ".join(str(scale) for scale in stream.scales_used[:12])
                + (" ..." if len(stream.scales_used) > 12 else ""),
            ]
            for stream in self.streams
        ]
        return (
            self.telemetry.format(title=title)
            + "\n\n"
            + format_table(
                ["Stream", "Served", "Shed", "Scale trace"],
                trace_rows,
                title="Adaptive-scale traces",
            )
        )


# -- pipeline facade ---------------------------------------------------------
class Pipeline:
    """Declarative wrapper around the Fig. 2 training/evaluation pipeline."""

    def __init__(self, config: ExperimentConfig, dataset_cls: type | None = None) -> None:
        self.config = config
        self.dataset_cls = dataset_cls if dataset_cls is not None else _resolve_dataset_cls(config)
        self._bundle: ExperimentBundle | None = None

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig | Mapping[str, Any] | str | None = None,
        *,
        seed: int | None = None,
        config_file: str | Path | None = None,
        overrides: Iterable[str] | Mapping[str, Any] = (),
        dataset: str | type | None = None,
    ) -> "Pipeline":
        """Build a pipeline from a preset name, config object or nested spec.

        ``config`` may be an :class:`~repro.config.ExperimentConfig`, a nested
        plain dict, a preset name, or None (preset defaults); ``config_file``
        and ``overrides`` overlay it with the standard precedence.  ``dataset``
        optionally forces a dataset by registry name or class.
        """
        if isinstance(config, ExperimentConfig):
            resolved = _with_seed(config, seed)
            if config_file is not None or overrides:
                merged = resolved.to_dict()
                if config_file is not None:
                    merged = deep_merge(merged, load_config_file(config_file))
                resolved = ExperimentConfig.from_dict(merged)
                override_map = _as_override_map(overrides)
                if override_map:
                    resolved = apply_overrides(resolved, override_map)
            resolved.validate()
        elif isinstance(config, Mapping):
            resolved = _with_seed(ExperimentConfig.from_dict(config), seed)
            resolved.validate()
        else:
            resolved = load_experiment_config(
                preset=config, config_file=config_file, overrides=overrides, seed=seed
            )
        dataset_cls: type | None
        if dataset is None:
            dataset_cls = (
                EXPERIMENT_PRESETS.get(config).dataset_cls if isinstance(config, str) else None
            )
        elif isinstance(dataset, str):
            dataset_cls = DATASETS.get(dataset)
        else:
            dataset_cls = dataset
        return cls(resolved, dataset_cls=dataset_cls)

    @classmethod
    def from_bundle(
        cls,
        directory: str | Path,
        config: ExperimentConfig,
        dataset_cls: type | None = None,
    ) -> "Pipeline":
        """Wrap a bundle previously saved with :meth:`save_bundle` / ``repro train``."""
        pipeline = cls(config, dataset_cls=dataset_cls)
        pipeline._bundle = ExperimentBundle.load(directory, config, pipeline.dataset_cls)
        return pipeline

    # -- training / artefacts ------------------------------------------------
    def run(self) -> ExperimentBundle:
        """Train every stage (idempotent — the bundle is cached on the pipeline)."""
        if self._bundle is None:
            self._bundle = AdaScalePipeline(self.config, dataset_cls=self.dataset_cls).run()
        return self._bundle

    @property
    def bundle(self) -> ExperimentBundle:
        """The trained bundle, training it on first access."""
        return self.run()

    def save_bundle(self, directory: str | Path) -> Path:
        """Persist the trained artefacts (see :meth:`ExperimentBundle.save`)."""
        return self.bundle.save(directory)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, methods: Sequence[str] = ("SS/SS", "MS/SS", "MS/AdaScale")) -> EvaluationReport:
        """Evaluate ``methods`` on the validation split as a typed report."""
        results = self.bundle.evaluate_methods(methods)
        return EvaluationReport(
            rows=tuple(MethodReport.from_result(results[name]) for name in methods),
            results=results,
        )

    def serve(self, serving: ServingConfig | None = None) -> "Server":
        """A :class:`Server` over this pipeline's bundle."""
        return Server(self.bundle, serving=serving)


# -- serving facade ----------------------------------------------------------
class Server:
    """Declarative wrapper around :class:`~repro.serving.InferenceServer`."""

    def __init__(self, bundle: ExperimentBundle, serving: ServingConfig | None = None) -> None:
        self.bundle = bundle
        self.serving = serving if serving is not None else bundle.config.serving
        self._inference: InferenceServer | None = None

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig | Mapping[str, Any] | str | None = None,
        *,
        seed: int | None = None,
        config_file: str | Path | None = None,
        overrides: Iterable[str] | Mapping[str, Any] = (),
        bundle_dir: str | Path | None = None,
        dataset: str | type | None = None,
    ) -> "Server":
        """Resolve the config, then train (or load) the bundle it serves.

        ``bundle_dir`` loads artefacts saved by ``repro train`` instead of
        training from scratch.
        """
        pipeline = Pipeline.from_config(
            config, seed=seed, config_file=config_file, overrides=overrides, dataset=dataset
        )
        if bundle_dir is not None:
            pipeline = Pipeline.from_bundle(bundle_dir, pipeline.config, pipeline.dataset_cls)
        return cls(pipeline.bundle, serving=pipeline.config.serving)

    # -- lifecycle -----------------------------------------------------------
    @property
    def inference(self) -> InferenceServer:
        """The underlying :class:`InferenceServer` (started on first use)."""
        if self._inference is None:
            self._inference = InferenceServer(self.bundle, serving=self.serving)
        return self._inference

    def __enter__(self) -> "Server":
        self.inference.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._inference is not None:
            self._inference.stop()

    # -- load replay ---------------------------------------------------------
    def serve_load(
        self,
        streams: int = 4,
        frames_per_stream: int | None = None,
        pattern: str = "poisson",
        rate_fps: float = 30.0,
        time_scale: float = 0.0,
        seed: int = 0,
        telemetry: TelemetryConfig | None = None,
    ) -> ServeReport:
        """Replay a deterministic synthetic load and return a typed report.

        Stream sources are the bundle's validation snippets, assigned
        round-robin.  This is the shared serve flow of the ``repro serve``
        CLI, the concurrent-streams example and the serving benchmark.

        ``telemetry`` activates a :class:`~repro.observability.Tracer` for the
        replay; captured events come back on ``ServeReport.trace_events``.
        With ``telemetry=None`` (or ``enabled=False``) tracing stays a no-op.
        """
        sources = round_robin_streams(self.bundle.val_dataset, streams)
        shortest = min(len(source) for source in sources)
        if frames_per_stream is not None and frames_per_stream > shortest:
            raise ValueError(
                f"frames_per_stream={frames_per_stream} exceeds the shortest "
                f"validation snippet ({shortest} frames); build longer snippets "
                f"with --set dataset.frames_per_snippet={frames_per_stream}"
            )
        generator = LoadGenerator(
            num_streams=streams,
            frames_per_stream=shortest if frames_per_stream is None else frames_per_stream,
            pattern=pattern,
            rate_fps=rate_fps,
            seed=seed,
        )
        tracer = Tracer(telemetry) if telemetry is not None else None
        server = self.inference
        started = server._started
        if not started:
            server.start()
        try:
            if tracer is not None:
                with tracer:
                    generator.run(server, sources, time_scale=time_scale)
                    server.drain()
            else:
                generator.run(server, sources, time_scale=time_scale)
                server.drain()
        finally:
            if not started:
                server.stop(cancel_pending=False)
        results = server.finalize()
        return ServeReport(
            telemetry=server.telemetry(),
            streams=tuple(
                StreamReport.from_result(stream_id, result)
                for stream_id, result in sorted(results.items())
            ),
            results=results,
            trace_events=tracer.events() if tracer is not None else (),
        )


# -- cluster facade -----------------------------------------------------------
class Cluster:
    """Declarative wrapper around the sharded serving cluster (``repro.cluster``).

    Composes the experiment config (bundle, serving and AdaScale parameters)
    with its :class:`~repro.config.ClusterConfig` section (shards, router,
    governor, autoscaler, process pool, fault) and runs trace-driven
    scenarios::

        cluster = api.Cluster.from_config("tiny", cluster={"num_shards": 4})
        report = cluster.run_scenario("flash_crowd")
        print(report.format())

    ``mode="simulate"`` (the default) runs the calibrated virtual-time engine
    — the per-scale service costs are measured on the bundle's real detector,
    everything else is deterministic; ``mode="process"`` replays the trace in
    wall-clock time against real :class:`~repro.serving.InferenceServer`
    shards, one spawned OS process each (frames over framed pipes, with crash
    supervision, stream migration and optional fault injection via
    ``cluster.fault``).
    """

    def __init__(
        self,
        bundle: ExperimentBundle | None = None,
        cluster: ClusterConfig | None = None,
        serving: ServingConfig | None = None,
        adascale=None,
        service_model: ServiceModel | None = None,
        pipeline: Pipeline | None = None,
    ) -> None:
        if bundle is None and service_model is None and pipeline is None:
            raise ValueError(
                "need a trained bundle, a pipeline to train one, or an explicit service_model"
            )
        self._bundle = bundle
        #: untrained source of the bundle; training is deferred until a run
        #: actually needs weights (calibration or process shards)
        self._pipeline = pipeline
        #: saved-bundle directory (when known) — process-mode replicas load
        #: straight from it instead of re-saving to a temporary directory
        self._bundle_dir: str | None = None
        config = (
            bundle.config
            if bundle is not None
            else (pipeline.config if pipeline is not None else ExperimentConfig())
        )
        self.cluster = cluster if cluster is not None else config.cluster
        self.serving = serving if serving is not None else config.serving
        self.adascale = adascale if adascale is not None else config.adascale
        self._service_model = service_model

    @property
    def bundle(self) -> ExperimentBundle | None:
        """The trained bundle, training the deferred pipeline on first access."""
        if self._bundle is None and self._pipeline is not None:
            self._bundle = self._pipeline.bundle
        return self._bundle

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig | Mapping[str, Any] | str | None = None,
        *,
        cluster: ClusterConfig | Mapping[str, Any] | None = None,
        seed: int | None = None,
        config_file: str | Path | None = None,
        overrides: Iterable[str] | Mapping[str, Any] = (),
        bundle_dir: str | Path | None = None,
        dataset: str | type | None = None,
        calibrate: bool = True,
    ) -> "Cluster":
        """Resolve configs, train (or load) the bundle, optionally calibrate.

        The deployment is the resolved experiment's ``cluster`` section
        (preset < ``config_file`` < ``overrides``, so ``overrides=
        ["cluster.num_shards=4"]`` works).  An explicit ``cluster`` — a
        :class:`ClusterConfig` or a nested plain dict over the
        :class:`ClusterConfig` defaults — replaces that section instead.
        Either is validated before anything loads.  With ``calibrate=False``
        the simulate mode falls back to the analytic area-proportional service
        model instead of timing the real detector — and training is deferred,
        so a pure virtual-time run never trains at all (process-mode runs
        still train on first use).
        """
        if isinstance(cluster, Mapping):
            cluster = ClusterConfig.from_dict(cluster)
        pipeline = Pipeline.from_config(
            config, seed=seed, config_file=config_file, overrides=overrides, dataset=dataset
        )
        cluster = cluster if cluster is not None else pipeline.config.cluster
        cluster.validate()
        if bundle_dir is not None:
            pipeline = Pipeline.from_bundle(bundle_dir, pipeline.config, pipeline.dataset_cls)
        instance = cls(
            cluster=cluster,
            serving=pipeline.config.serving,
            adascale=pipeline.config.adascale,
            pipeline=pipeline,
        )
        if bundle_dir is not None:
            instance._bundle_dir = str(bundle_dir)
        if not calibrate:
            instance._service_model = analytic_service_model(instance.adascale)
        return instance

    @property
    def service_model(self) -> ServiceModel:
        """The per-scale cost model (calibrated on first use when possible)."""
        if self._service_model is None:
            self._service_model = calibrate_service_model(self.bundle)
        return self._service_model

    def controller(self, cluster: ClusterConfig | None = None) -> ClusterController:
        """A :class:`~repro.cluster.ClusterController` over this deployment."""
        cluster = cluster if cluster is not None else self.cluster
        # Weights are only needed for real shards (or calibration, which the
        # service_model property triggers itself).
        model = self.service_model if cluster.mode == "simulate" else self._service_model
        process = cluster.mode == "process"
        return ClusterController(
            cluster=cluster,
            serving=self.serving,
            adascale=self.adascale,
            model=model,
            bundle=self.bundle if process else self._bundle,
            bundle_dir=self._bundle_dir if process else None,
        )

    def run_scenario(
        self,
        scenario: str | ScenarioConfig | WorkloadTrace = "flash_crowd",
        *,
        shards: int | None = None,
        mode: str | None = None,
        fault: "FaultConfig | str | None" = None,
        time_scale: float = 0.25,
        telemetry: TelemetryConfig | None = None,
        **scenario_fields: Any,
    ) -> ClusterReport:
        """Run one scenario end to end and return its typed report.

        ``scenario`` is a catalog name, a :class:`ScenarioConfig`, or a
        pre-built :class:`WorkloadTrace`; ``scenario_fields`` override config
        fields when a name is given (e.g. ``duration_s=10``).  ``shards`` and
        ``mode`` override the cluster config for this run only —
        ``self.cluster`` is left untouched; ``fault`` (a
        :class:`~repro.cluster.FaultConfig` or a CLI-style spec string such
        as ``"kill-replica:shard=0,at=2.0"``) schedules a process-mode fault
        injection the same way.  ``telemetry`` traces the run
        (both backends emit the same event vocabulary); events come back on
        ``ClusterReport.trace_events``.

        In process mode the telemetry config also ships to every spawned
        replica (inside its :class:`~repro.cluster.ReplicaSpec`): each child
        activates its own tracer, batches span events over IPC on the
        telemetry cadence, and the parent rebases their timestamps onto its
        monotonic clock (offset estimated by a ping/pong burst at handshake)
        and re-namespaces their ids — so one traced run yields one coherent
        fleet-wide timeline, supervisor crash→migrate→respawn spans included.
        Span shipping never blocks serving; any events shed under pressure
        are counted on ``ClusterReport.span_drops``.
        """
        cluster = self.cluster
        if shards is not None:
            cluster = cluster.with_(num_shards=int(shards))
        if mode is not None:
            cluster = cluster.with_(mode=mode)
        if fault is not None:
            if isinstance(fault, str):
                from repro.cluster.faults import parse_fault_spec

                fault = parse_fault_spec(fault)
            cluster = cluster.with_(fault=fault)
        if isinstance(scenario, str):
            scenario = ScenarioConfig(name=scenario).with_(**scenario_fields)
        elif isinstance(scenario, ScenarioConfig) and scenario_fields:
            scenario = scenario.with_(**scenario_fields)
        elif isinstance(scenario, WorkloadTrace) and scenario_fields:
            raise ValueError(
                "scenario field overrides "
                f"({', '.join(sorted(scenario_fields))}) cannot apply to a "
                "pre-built WorkloadTrace — regenerate the trace from a "
                "ScenarioConfig instead"
            )
        if telemetry is None:
            return self.controller(cluster).run(scenario, time_scale=time_scale)
        tracer = Tracer(telemetry)
        with tracer:
            report = self.controller(cluster).run(scenario, time_scale=time_scale)
        return replace(report, trace_events=tracer.events())
