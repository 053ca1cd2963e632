"""Smoke test of the benchmark itself (``pytest perf -q``; not a tier-1 test).

Runs every workload at ``--smoke`` sizes, untraced and traced, through the
same command the driver uses, and checks the result schema against
``BENCHMARK.json`` in both directions.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170, check=False,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    failed_checks = [line for line in done.stdout.splitlines() if line.endswith("FAILED")]
    assert not failed_checks, failed_checks
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_declaration_is_well_formed():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    names = WORKLOADS + [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert all(len(workload["why"]) <= 200 for workload in DECLARED["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_are_exactly_the_declared_ones(workload, trace):
    result = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: cell["unit"] for name, cell in result["metrics"].items()
    }
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_every_per_layer_metric_is_produced_by_some_workload():
    # Counters that stay 0 on a healthy run (sheds, crashes, …) are exempt.
    healthy_zero = re.compile(
        r"serving\.(shed_|failed)|cluster\.(crashes|respawns|streams_stranded|span_drops)"
        r"|nn\.im2col_plan_(hit_share|lookups_per_frame)"
    )
    produced = {
        name
        for workload in WORKLOADS
        for name, cell in smoke_run(workload, 1)["metrics"].items()
        if cell["value"] != 0.0
    }
    expected = {
        m["name"] for m in DECLARED["per_layer"] if not healthy_zero.match(m["name"])
    }
    assert expected <= produced, sorted(expected - produced)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_parent_correctly_and_self_time_reconstructs(workload):
    smoke_run(workload, 1)
    lines = (PERF_DIR / "out" / f"{workload}.spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and [span["id"] for span in spans] == list(range(len(spans)))
    covered = [0.0] * len(spans)
    for span in spans:
        assert NAME.fullmatch(span["name"]) and span["end_s"] >= span["start_s"]
        if span["parent"] is None:
            continue
        parent = spans[span["parent"]]
        assert parent["trace"] == span["trace"]
        assert parent["start_s"] - 1e-6 <= span["start_s"]
        assert span["end_s"] <= parent["end_s"] + 1e-6
        covered[span["parent"]] += span["end_s"] - span["start_s"]
    for span, children_s in zip(spans, covered):
        duration = span["end_s"] - span["start_s"]
        assert -1e-6 <= span["self_s"] <= duration + 1e-6
        # Children may overlap (submit vs queue wait), so their sum bounds
        # the covered part from above: self + Σchildren ≥ duration.
        assert span["self_s"] + children_s >= duration - 1e-6


def test_seed_changes_the_inputs_but_not_the_schema():
    sys.path[:0] = [str(REPO_ROOT / "src"), str(PERF_DIR)]
    try:
        import numpy as np
        from harness.inputs import SMOKE_SIZES, experiment_config, load_bundle, render_videos

        def first_frame(seed: int):
            config = experiment_config(seed, SMOKE_SIZES, quantize=False)
            return render_videos(load_bundle(config), 1)[0][0].image

        assert np.array_equal(first_frame(0), first_frame(0))
        assert not np.array_equal(first_frame(0), first_frame(1))
    finally:
        del sys.path[:2]
    for trace in (0, 1):
        assert set(smoke_run("video_fixed", trace, 0)["metrics"]) == set(
            smoke_run("video_fixed", trace, 1)["metrics"]
        )
