"""Tests for the profiling subsystem: stage timers, bench JSON, regression gates."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.profiling import (
    BENCH_SCHEMA_VERSION,
    StageProfiler,
    active_profiler,
    bench_payload,
    compare_dirs,
    compare_payloads,
    env_fingerprint,
    load_bench_json,
    stage,
    validate_bench_payload,
    write_bench_json,
)
from repro.profiling.profiler import _NULL_SCOPE
from repro.profiling.regression import GateConfig


class TestStageScopes:
    def test_disabled_stage_is_shared_null_scope(self):
        # Zero overhead when no profiler is active: the same do-nothing
        # singleton is handed out, nothing is allocated or recorded.
        assert active_profiler() is None
        assert stage("a") is stage("b")
        assert stage("a") is _NULL_SCOPE
        with stage("a"):
            pass  # no profiler: no samples can exist anywhere

    def test_records_samples_when_active(self):
        profiler = StageProfiler()
        with profiler:
            with stage("alpha"):
                time.sleep(0.001)
            with stage("alpha"):
                pass
        stats = profiler.stages()
        assert stats["alpha"]["count"] == 2
        assert stats["alpha"]["total_s"] > 0

    def test_nested_scopes_build_paths(self):
        profiler = StageProfiler()
        with profiler:
            with stage("outer"):
                with stage("inner"):
                    pass
                with stage("inner"):
                    pass
        stats = profiler.stages()
        assert stats["outer"]["count"] == 1
        assert stats["outer/inner"]["count"] == 2
        # The outer scope's time includes its children.
        assert stats["outer"]["total_s"] >= stats["outer/inner"]["total_s"]

    def test_deactivation_restores_null_behaviour(self):
        profiler = StageProfiler()
        with profiler:
            with stage("x"):
                pass
        assert active_profiler() is None
        with stage("x"):
            pass
        assert profiler.stages()["x"]["count"] == 1

    def test_nested_activation_raises(self):
        with StageProfiler():
            with pytest.raises(RuntimeError):
                StageProfiler().__enter__()

    def test_thread_isolation(self):
        """Each thread keeps its own nesting stack and its own timer."""
        profiler = StageProfiler()
        barrier = threading.Barrier(2)

        def worker(name: str) -> None:
            with stage(name):
                barrier.wait(timeout=5)
                with stage("leaf"):
                    pass

        with profiler:
            threads = [
                threading.Thread(target=worker, args=(f"thread{i}",)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        stats = profiler.stages()
        # Concurrent nesting never interleaves across threads: each leaf is
        # recorded under its own thread's outer scope.
        assert stats["thread0/leaf"]["count"] == 1
        assert stats["thread1/leaf"]["count"] == 1
        assert "thread0/thread1" not in stats and "thread1/thread0" not in stats
        assert profiler.thread_count() == 2
        per_thread = profiler.per_thread()
        assert len(per_thread) == 2
        for counts in per_thread.values():
            assert sum(counts.values()) == 2  # one outer + one leaf each

    def test_same_path_merges_across_threads(self):
        profiler = StageProfiler()
        profiler._record("step", 0.1)
        other = threading.Thread(target=profiler._record, args=("step", 0.3))
        other.start()
        other.join(timeout=5)
        assert not other.is_alive()
        stats = profiler.stages()["step"]
        assert profiler.thread_count() == 2
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(0.4)
        assert stats["mean_ms"] == pytest.approx(200.0)

    def test_format_and_as_dict(self):
        profiler = StageProfiler()
        with profiler:
            with stage("s"):
                pass
        snapshot = profiler.as_dict()
        assert snapshot["threads"] == 1
        assert "s" in snapshot["stages"]
        text = profiler.format()
        assert "Stage" in text and "s" in text


class TestBenchJson:
    def test_payload_shape(self):
        payload = bench_payload("demo", data={"fps": 1.0}, fast=True)
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["name"] == "demo"
        assert payload["fast"] is True
        assert payload["data"] == {"fps": 1.0}
        assert validate_bench_payload(payload) == []

    def test_env_fingerprint_contents(self):
        env = env_fingerprint()
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] >= 1

    def test_profile_embedding(self):
        profiler = StageProfiler()
        with profiler:
            with stage("s"):
                pass
        payload = bench_payload("demo", profile=profiler)
        assert "s" in payload["profile"]["stages"]

    def test_validation_catches_problems(self):
        assert validate_bench_payload({}) != []
        bad_version = bench_payload("demo")
        bad_version["schema_version"] = "one"
        assert any("schema_version" in p for p in validate_bench_payload(bad_version))
        future = bench_payload("demo")
        future["schema_version"] = BENCH_SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_bench_payload(future))

    def test_write_and_load_roundtrip(self, tmp_path):
        path = write_bench_json(tmp_path, "demo", data={"fps": 2.0})
        assert path.name == "BENCH_demo.json"
        payload = load_bench_json(path)
        assert payload["data"]["fps"] == 2.0

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"name": "bad"}))
        with pytest.raises(ValueError):
            load_bench_json(path)


def _payload(data, profile=None):
    payload = bench_payload("demo", data=data)
    if profile is not None:
        payload["profile"] = profile
    return payload


class TestRegressionGates:
    def test_identical_payloads_pass(self):
        base = _payload({"fps": 10.0, "shed": 0, "completed": 5})
        assert compare_payloads(base, base) == []

    def test_fps_collapse_fails_but_jitter_passes(self):
        base = _payload({"throughput_fps": 100.0})
        ok = _payload({"throughput_fps": 55.0})
        bad = _payload({"throughput_fps": 5.0})
        assert compare_payloads(ok, base) == []
        assert any("fell below" in v for v in compare_payloads(bad, base))

    def test_nested_fps_keys_are_gated(self):
        base = _payload({"batched_fps_by_batch": {"4": 40.0}})
        bad = _payload({"batched_fps_by_batch": {"4": 1.0}})
        assert any("fell below" in v for v in compare_payloads(bad, base))

    def test_shed_gate_only_pins_lossless_baselines(self):
        base = _payload({"a": {"shed": 0}, "b": {"shed": 12}})
        ok = _payload({"a": {"shed": 0}, "b": {"shed": 40}})
        bad = _payload({"a": {"shed": 2}, "b": {"shed": 12}})
        assert compare_payloads(ok, base) == []
        assert any("lossless" in v for v in compare_payloads(bad, base))

    def test_occupancy_gate(self):
        base = _payload({"occupancy_by_batch": {"4": 3.0}})
        ok = _payload({"occupancy_by_batch": {"4": 2.5}})
        bad = _payload({"occupancy_by_batch": {"4": 1.0}})
        assert compare_payloads(ok, base) == []
        assert any("occupancy" in v for v in compare_payloads(bad, base))

    def test_speedup_floor(self):
        base = _payload({"speedup": 2.0})
        ok = _payload({"speedup": 1.2})
        bad = _payload({"speedup": 0.9})
        assert compare_payloads(ok, base) == []
        assert any("floor" in v for v in compare_payloads(bad, base))

    def test_missing_metric_is_a_violation(self):
        base = _payload({"fps": 10.0})
        current = _payload({})
        assert any("missing" in v for v in compare_payloads(current, base))

    def test_ungated_values_may_drift_freely(self):
        base = _payload({"mean_ap_pct": 80.0, "p50_ms": 10.0, "mean_batch": 3.0})
        drifted = _payload({"mean_ap_pct": 10.0, "p50_ms": 500.0, "mean_batch": 0.1})
        assert compare_payloads(drifted, base) == []

    def test_stage_coverage(self):
        base = _payload({}, profile={"stages": {"detect/backbone": {}, "detect/nms": {}}})
        ok = _payload(
            {}, profile={"stages": {"detect/backbone": {}, "detect/nms": {}, "new": {}}}
        )
        lost = _payload({}, profile={"stages": {"detect/backbone": {}}})
        assert compare_payloads(ok, base) == []
        assert any("lost stages" in v for v in compare_payloads(lost, base))

    def test_schema_version_mismatch(self):
        base = _payload({})
        current = _payload({})
        current["schema_version"] = BENCH_SCHEMA_VERSION + 1
        assert any("schema_version" in v for v in compare_payloads(current, base))

    def test_gate_config_tunes_tolerance(self):
        base = _payload({"fps": 100.0})
        current = _payload({"fps": 55.0})
        strict = GateConfig(fps_ratio=0.9)
        assert compare_payloads(current, base, strict) != []


class TestCompareDirs:
    def test_empty_baseline_dir_is_a_violation(self, tmp_path):
        report = compare_dirs(tmp_path / "results", tmp_path / "baselines")
        assert not report.ok

    def test_missing_current_artefact(self, tmp_path):
        baselines = tmp_path / "baselines"
        write_bench_json(baselines, "demo", data={"fps": 1.0})
        report = compare_dirs(tmp_path / "results", baselines)
        assert any("was not produced" in v for v in report.violations)
        assert report.compared == ["demo"]

    def test_matching_dirs_pass_and_extra_results_are_allowed(self, tmp_path):
        baselines = tmp_path / "baselines"
        results = tmp_path / "results"
        write_bench_json(baselines, "demo", data={"fps": 1.0})
        write_bench_json(results, "demo", data={"fps": 0.9})
        write_bench_json(results, "extra", data={"fps": 0.1})
        report = compare_dirs(results, baselines)
        assert report.ok, report.violations
        assert "all regression gates passed" in report.format()

    def test_violations_are_reported(self, tmp_path):
        baselines = tmp_path / "baselines"
        results = tmp_path / "results"
        write_bench_json(baselines, "demo", data={"fps": 100.0})
        write_bench_json(results, "demo", data={"fps": 1.0})
        report = compare_dirs(results, baselines)
        assert not report.ok
        assert "gate violation" in report.format()
