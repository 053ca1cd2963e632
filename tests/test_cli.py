"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.config import ExperimentConfig
from repro.configio import toml_supported
from repro.presets import EXPERIMENT_PRESETS, ExperimentPreset


def _point_tiny_at_micro(monkeypatch, micro_config):
    """Re-register the 'tiny' preset to the micro configuration (auto-restored)."""
    preset = ExperimentPreset(
        name="tiny",
        dataset=micro_config.dataset.name,
        spec=micro_config.to_dict(),
        description="micro test override",
    )
    monkeypatch.setitem(EXPERIMENT_PRESETS._entries, "tiny", preset)
    return preset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.preset == "tiny"
        assert args.seed is None  # None = keep the seeds the preset declares
        assert args.methods == ["SS/SS", "MS/SS", "MS/AdaScale"]

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--preset", "huge", "labels"])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--methods", "MS/Bogus"])

    def test_serve_refuses_removed_unbatched_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--unbatched"])
        assert excinfo.value.code == 2
        assert "--unbatched" in capsys.readouterr().err

    def test_cluster_refuses_removed_inprocess_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["cluster", "--mode", "inprocess"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'inprocess'" in err and "'simulate', 'process'" in err

    def test_preset_choices_come_from_registry(self):
        parser = build_parser()
        for name in EXPERIMENT_PRESETS.names():
            args = parser.parse_args(["--preset", name, "labels"])
            assert args.preset == name

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.streams == 4
        assert args.pattern == "poisson"
        assert args.policy is None
        assert args.telemetry is False
        assert args.telemetry_sample == 1.0
        assert args.span_log is None and args.export_trace is None

    def test_serve_and_cluster_share_telemetry_flags(self):
        """Flag parity: serve accepts the same tracing surface as cluster."""
        parser = build_parser()
        for command in ("serve", "cluster"):
            args = parser.parse_args(
                [
                    command,
                    "--telemetry",
                    "--telemetry-sample", "0.5",
                    "--span-log", "spans.jsonl",
                    "--export-trace", "trace.json",
                ]
            )
            assert args.telemetry is True
            assert args.telemetry_sample == 0.5
            assert str(args.span_log) == "spans.jsonl"
            assert str(args.export_trace) == "trace.json"

    def test_set_is_repeatable(self):
        args = build_parser().parse_args(
            ["run", "--set", "serving.num_workers=3", "--set", "seed=4"]
        )
        assert args.overrides == ["serving.num_workers=3", "seed=4"]

    def test_config_flag_accepted_by_every_experiment_command(self):
        parser = build_parser()
        for command in ("run", "train", "evaluate", "labels", "serve", "config"):
            extra = ["--output", "x"] if command == "train" else []
            args = parser.parse_args([command, "--config", "exp.toml", *extra])
            assert str(args.config) == "exp.toml"


class TestRegistries:
    def test_known_presets_registered(self):
        assert set(EXPERIMENT_PRESETS.names()) >= {"tiny", "vid", "ytbb"}

    def test_datasets_registered(self):
        from repro.data.mini_ytbb import MiniYTBB
        from repro.data.synthetic_vid import SyntheticVID
        from repro.presets import DATASETS

        assert DATASETS.get("synthetic-vid") is SyntheticVID
        assert DATASETS.get("mini-ytbb") is MiniYTBB

    def test_registry_rejects_duplicate_without_override(self):
        preset = EXPERIMENT_PRESETS.get("tiny")
        with pytest.raises(KeyError):
            EXPERIMENT_PRESETS.register("tiny", preset)
        # override=True outside an allow_override context is loud, not silent.
        with pytest.raises(RuntimeError, match="allow_override"):
            EXPERIMENT_PRESETS.register("tiny", preset, override=True)
        with EXPERIMENT_PRESETS.allow_override():
            EXPERIMENT_PRESETS.register("tiny", preset, override=True)

    def test_preset_dataset_resolves_through_registry(self):
        from repro.data.mini_ytbb import MiniYTBB

        assert EXPERIMENT_PRESETS.get("ytbb").dataset_cls is MiniYTBB


class TestCommands:
    def test_evaluate_from_saved_bundle(self, micro_bundle, micro_config, tmp_path, capsys, monkeypatch):
        """`evaluate --bundle` loads a saved bundle instead of retraining."""
        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        # Point the 'tiny' preset at the micro configuration so load shapes match.
        _point_tiny_at_micro(monkeypatch, micro_config)
        exit_code = main(["evaluate", "--bundle", str(bundle_dir), "--methods", "MS/SS"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "MS/SS" in captured.out
        assert "mAP" in captured.out
        assert "p95" in captured.out

    def test_labels_command(self, micro_bundle, micro_config, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        _point_tiny_at_micro(monkeypatch, micro_config)
        monkeypatch.setattr(
            cli, "_pipeline", lambda args: api.Pipeline.from_bundle(bundle_dir, micro_config)
        )
        exit_code = main(["labels"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "optimal scale" in captured.out

    def test_serve_command(self, micro_bundle, micro_config, tmp_path, capsys, monkeypatch):
        """`serve --bundle` runs a load-generated session and prints telemetry."""
        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        _point_tiny_at_micro(monkeypatch, micro_config)
        exit_code = main(
            [
                "serve",
                "--bundle",
                str(bundle_dir),
                "--streams",
                "2",
                "--frames",
                "2",
                "--workers",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "p95" in captured.out
        assert "throughput" in captured.out
        assert "Adaptive-scale traces" in captured.out

    def test_serve_traced_writes_span_log_and_chrome_trace(
        self, micro_bundle, micro_config, tmp_path, capsys, monkeypatch
    ):
        """`serve --span-log/--export-trace` produce loadable artefacts."""
        from repro.observability import load_span_log, validate_chrome_trace

        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        _point_tiny_at_micro(monkeypatch, micro_config)
        span_log = tmp_path / "spans.jsonl"
        chrome = tmp_path / "trace.json"
        exit_code = main(
            [
                "serve",
                "--bundle", str(bundle_dir),
                "--streams", "2",
                "--frames", "2",
                "--span-log", str(span_log),
                "--export-trace", str(chrome),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Wrote telemetry span log" in captured.out
        assert "Wrote Chrome trace" in captured.out
        events = load_span_log(span_log)
        assert events
        assert "serving/complete_frame" in {event.name for event in events}
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []

    def test_serve_accepts_set_overrides(self, micro_bundle, micro_config, tmp_path, capsys, monkeypatch):
        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        _point_tiny_at_micro(monkeypatch, micro_config)
        exit_code = main(
            [
                "serve",
                "--bundle",
                str(bundle_dir),
                "--streams",
                "2",
                "--frames",
                "2",
                "--set",
                "serving.backpressure=drop-oldest",
                "--set",
                "serving.batch_wait_ms=1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "policy drop-oldest" in captured.out


class TestObsCommand:
    def _fleet_span_log(self, path):
        """A hand-built process-mode span log: child spans + supervisor lane."""
        base = 1 << 32
        events = [
            {
                "name": "serving/service", "kind": "span",
                "trace_id": base + 1, "span_id": base + 2, "parent_id": base + 1,
                "start_s": 1.0, "duration_s": 0.02, "stream_id": 3,
                "frame_index": 0, "shard_id": 0,
                "attrs": {"os_pid": 4242, "generation": 0},
            },
            {
                "name": "serving/service", "kind": "span",
                "trace_id": 2 * base + 1, "span_id": 2 * base + 2,
                "parent_id": 2 * base + 1,
                "start_s": 2.0, "duration_s": 0.02, "stream_id": 3,
                "frame_index": 1, "shard_id": 0,
                "attrs": {"os_pid": 4301, "generation": 1},
            },
            {
                "name": "supervisor/crash", "kind": "span",
                "trace_id": 0, "span_id": 7, "parent_id": None,
                "start_s": 1.5, "duration_s": 0.1, "stream_id": -1,
                "frame_index": -1, "shard_id": 0,
                "attrs": {"fault": "kill-replica", "exitcode": -9},
            },
            {
                "name": "supervisor/respawn", "kind": "span",
                "trace_id": 0, "span_id": 8, "parent_id": None,
                "start_s": 1.5, "duration_s": 0.4, "stream_id": -1,
                "frame_index": -1, "shard_id": 0,
                "attrs": {"attempt": 1, "generation": 1},
            },
        ]
        path.write_text("".join(json.dumps(event) + "\n" for event in events))
        return path

    def test_summarize_shows_fleet_table_and_supervisor_timeline(
        self, tmp_path, capsys
    ):
        span_log = self._fleet_span_log(tmp_path / "spans.jsonl")
        exit_code = main(["obs", "summarize", str(span_log)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Process fleet" in captured.out
        assert "4242" in captured.out and "4301" in captured.out
        assert "Supervisor timeline" in captured.out
        assert "supervisor/crash" in captured.out
        assert "fault=kill-replica" in captured.out
        assert "supervisor/respawn" in captured.out

    def test_summarize_single_process_log_omits_fleet_sections(
        self, tmp_path, capsys
    ):
        span_log = tmp_path / "spans.jsonl"
        span_log.write_text(
            json.dumps(
                {
                    "name": "serving/admit", "kind": "instant",
                    "trace_id": 1, "span_id": 1, "parent_id": None,
                    "start_s": 0.0, "duration_s": 0.0, "stream_id": 0,
                    "frame_index": 0, "shard_id": 0, "attrs": {},
                }
            )
            + "\n"
        )
        exit_code = main(["obs", "summarize", str(span_log)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Process fleet" not in captured.out
        assert "Supervisor timeline" not in captured.out


class TestRunCommand:
    def test_run_with_config_file_and_set_matches_in_code_config(
        self, micro_bundle, micro_config, tmp_path, capsys, monkeypatch
    ):
        """`repro run --config f --set a.b=c` == the equivalent in-code config."""
        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        _point_tiny_at_micro(monkeypatch, micro_config)
        config_path = tmp_path / "exp.json"
        json.dump({"serving": {"num_workers": 1}}, config_path.open("w"))

        exit_code = main(
            [
                "run",
                "--bundle",
                str(bundle_dir),
                "--config",
                str(config_path),
                "--set",
                "serving.max_batch_size=2",
                "--methods",
                "MS/SS",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0

        # The equivalently-constructed in-code config gives identical numbers.
        in_code = micro_config.with_(
            serving=micro_config.serving.with_(num_workers=1, max_batch_size=2)
        )
        expected = api.Pipeline.from_bundle(bundle_dir, in_code).evaluate(["MS/SS"])
        row = expected["MS/SS"]
        # Detection outputs are deterministic (timings are wall-clock, so not).
        assert f"{100 * row.mean_ap:.1f}" in out
        assert f"| {row.mean_scale:.0f}" in out

    @pytest.mark.skipif(not toml_supported(), reason="no TOML reader on this interpreter")
    def test_run_with_toml_config(self, micro_bundle, micro_config, tmp_path, capsys, monkeypatch):
        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        _point_tiny_at_micro(monkeypatch, micro_config)
        config_path = tmp_path / "exp.toml"
        micro_config.save(config_path)
        exit_code = main(
            ["run", "--bundle", str(bundle_dir), "--config", str(config_path), "--methods", "MS/SS"]
        )
        assert exit_code == 0
        assert "MS/SS" in capsys.readouterr().out

    def test_run_rejects_bad_override(self, capsys):
        with pytest.raises(SystemExit, match="config error"):
            main(["run", "--set", "serving.bogus_field=1"])

    def test_run_rejects_type_mismatch(self):
        with pytest.raises(SystemExit, match="config error"):
            main(["run", "--set", "serving.num_workers=many"])

    def test_missing_config_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="config error"):
            main(["run", "--config", str(tmp_path / "does-not-exist.toml")])

    def test_dataset_override_changes_dataset_class(self, monkeypatch):
        """--set dataset.name picks the dataset via the registry, not the preset."""
        import repro.cli as cli
        from repro.data.mini_ytbb import MiniYTBB

        captured = {}

        def fake_from_config(config, dataset=None, **kwargs):
            captured["dataset"] = dataset
            raise SystemExit(0)  # stop before training

        monkeypatch.setattr(cli.api.Pipeline, "from_config", fake_from_config)
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--preset",
                    "tiny",
                    "--set",
                    "dataset.name=mini-ytbb",
                    "--set",
                    "dataset.num_classes=4",
                ]
            )
        assert captured["dataset"] is MiniYTBB


class TestConfigCommand:
    def test_check_passes_for_registered_presets(self, capsys):
        assert main(["config", "--check"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "vid" in out and "ytbb" in out
        assert "all presets round-trip losslessly" in out

    def test_show_toml(self, capsys):
        assert main(["config", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "[dataset]" in out and "[serving]" in out

    def test_show_json_respects_set(self, capsys):
        assert main(["config", "--format", "json", "--set", "serving.num_workers=7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serving"]["num_workers"] == 7

    def test_save_round_trips(self, tmp_path, capsys):
        path = tmp_path / "resolved.json"
        assert main(["config", "--preset", "vid", "--save", str(path)]) == 0
        loaded = ExperimentConfig.load(path)
        assert loaded == EXPERIMENT_PRESETS.get("vid").build_config(seed=None)

    def test_save_bad_suffix_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="repro config: error"):
            main(["config", "--save", str(tmp_path / "resolved.yaml")])

    def test_check_flags_drift(self, capsys, monkeypatch):
        broken = ExperimentPreset(
            name="broken", dataset="synthetic-vid", spec={"detector": {"num_classes": 99}}
        )
        monkeypatch.setitem(EXPERIMENT_PRESETS._entries, "broken", broken)
        assert main(["config", "--check"]) == 1
        assert "broken" in capsys.readouterr().out


class TestBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.only is None and not args.fast and not args.compare

    def test_list_prints_benchmarks(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "serving_throughput" in out
        assert "table1_vid" in out

    def test_unknown_benchmark_rejected(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "test_demo.py").write_text("def test_noop():\n    pass\n")
        with pytest.raises(SystemExit):
            main(["bench", "--bench-dir", str(bench_dir), "--only", "nonexistent"])

    def test_run_invokes_pytest_and_summarises(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli
        from repro.profiling import write_bench_json

        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "test_demo.py").write_text("def test_noop():\n    pass\n")
        results_dir = tmp_path / "results"
        invoked = {}

        def fake_pytest(paths, extra):
            invoked["paths"] = paths
            invoked["extra"] = extra
            write_bench_json(results_dir, "demo", data={"fps": 1.0}, fast=True)
            return 0

        monkeypatch.setattr(cli, "_invoke_pytest", fake_pytest)
        code = main(
            [
                "bench",
                "--fast",
                "--bench-dir",
                str(bench_dir),
                "--results-dir",
                str(results_dir),
            ]
        )
        assert code == 0
        assert invoked["paths"] == [str(bench_dir / "test_demo.py")]
        assert "--benchmark-disable" in invoked["extra"]
        out = capsys.readouterr().out
        assert "BENCH_demo.json" in out
        assert "ok" in out

    def test_run_writes_results_under_bench_dir_by_default(self, tmp_path, monkeypatch):
        import os

        import repro.cli as cli

        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "test_demo.py").write_text("def test_noop():\n    pass\n")
        seen = {}

        def fake_pytest(paths, extra):
            seen["dir"] = os.environ["REPRO_BENCH_RESULTS"]
            return 0

        monkeypatch.delenv("REPRO_BENCH_RESULTS", raising=False)
        monkeypatch.setattr(cli, "_invoke_pytest", fake_pytest)
        main(["bench", "--bench-dir", str(bench_dir)])
        assert seen["dir"] == str(bench_dir / "results")
        assert "REPRO_BENCH_RESULTS" not in os.environ

    def test_run_flags_missing_artefacts(self, tmp_path, monkeypatch):
        import repro.cli as cli

        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "test_demo.py").write_text("def test_noop():\n    pass\n")
        monkeypatch.setattr(cli, "_invoke_pytest", lambda paths, extra: 0)
        code = main(
            [
                "bench",
                "--bench-dir",
                str(bench_dir),
                "--results-dir",
                str(tmp_path / "empty"),
            ]
        )
        assert code == 1

    def test_compare_gates_against_baselines(self, tmp_path, capsys):
        from repro.profiling import write_bench_json

        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        write_bench_json(baselines, "demo", data={"fps": 100.0})
        write_bench_json(results, "demo", data={"fps": 90.0})
        code = main(
            [
                "bench",
                "--compare",
                "--bench-dir",
                str(bench_dir),
                "--results-dir",
                str(results),
                "--baseline-dir",
                str(baselines),
            ]
        )
        assert code == 0
        assert "all regression gates passed" in capsys.readouterr().out

        write_bench_json(results, "demo", data={"fps": 2.0})
        code = main(
            [
                "bench",
                "--compare",
                "--bench-dir",
                str(bench_dir),
                "--results-dir",
                str(results),
                "--baseline-dir",
                str(baselines),
            ]
        )
        assert code == 1
