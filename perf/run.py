#!/usr/bin/env python3
"""The benchmark of record: one command, five workloads, end-to-end + per-layer.

Driver form (one run, one JSON object as the last line of stdout)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Developer forms::

    python3 perf/run.py --all --seed N          # every workload, untraced + traced
    python3 perf/run.py --repeat 10 --seed N    # run-to-run spread against the bounds
    python3 perf/run.py --workload NAME --traced --smoke

``--trace 0`` measures with all tracing off and reports the end-to-end
metrics; ``--trace 1`` is a separate run that records the benchmark's own
spans around each layer's public functions and reports the per-layer
metrics.  See ``perf/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from harness.inputs import OUT_DIR, REPO_ROOT, SMOKE_SIZES, Sizes  # noqa: E402

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
WORKLOADS = ("video_adascale", "video_fixed", "serve_open", "serve_saturated", "cluster_process")


def _declared() -> dict:
    """``BENCHMARK.json`` — the single declaration of workloads and metrics."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


# -- one run -------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload in this process and return the result object."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir() or not BENCHMARK_JSON.is_file():
        raise SystemExit(
            f"perf/run.py needs the program under {source} and {BENCHMARK_JSON}; "
            "run it from a full checkout"
        )
    sys.path.insert(0, str(source))
    import numpy  # noqa: F401  (import cost belongs to set-up)
    from repro import api  # noqa: F401

    from harness import cluster, env, probes, serve, video
    from harness.spans import SpanRecorder

    import_s = time.perf_counter() - _PROCESS_START
    sizes = SMOKE_SIZES if smoke else Sizes()
    rec = SpanRecorder() if traced else None
    module = {"video": video, "serve": serve, "cluster": cluster}[workload.split("_")[0]]
    outcome = module.run(workload, seed, seconds, traced, sizes, import_s, rec)

    declared = _declared()["per_layer" if traced else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if traced:
        probe_metrics, probe_checks = probes.run_all(seed, sizes)
        outcome.per_layer.update(probe_metrics)
        outcome.checks.update(probe_checks)
        unknown = set(outcome.per_layer) - set(units)
        if unknown:
            raise SystemExit(f"per-layer metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        # A layer a workload does not exercise, or that the benchmark cannot
        # see into from outside on that workload, reports 0.
        values = {name: outcome.per_layer.get(name, 0.0) for name in units}
        rec.write_jsonl(OUT_DIR / f"{workload}.spans.jsonl")
    else:
        values = {name: outcome.end_to_end[name] for name in units}

    result = {
        "correct": all(outcome.checks.values()),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in values},
    }
    report = dict(
        result,
        workload=workload,
        seed=seed,
        seconds=seconds,
        traced=traced,
        checks=outcome.checks,
        info=outcome.info,
        env=env.describe(),
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUT_DIR / f"{workload}.trace{int(traced)}.seed{seed}.json"
    out_path.write_text(json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")

    print(f"# {workload} seed={seed} seconds={seconds} trace={int(traced)}")
    for name, passed in outcome.checks.items():
        print(f"check {name:<40} {'ok' if passed else 'FAILED'}")
    for name, value in outcome.info.items():
        print(f"info  {name:<40} {value}")
    for name in values:
        print(f"{name:<46} {values[name]:>14.4f} {units[name]}")
    return result


# -- many runs (fresh process each: set-up and peak RSS are per process) ---------
def _spawn(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, cwd=REPO_ROOT, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (seed {seed}, trace {int(traced)}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload, untraced then traced; prints and writes every metric."""
    from harness import env

    declared = _declared()
    summary: dict[str, dict] = {}
    correct = True
    for workload in WORKLOADS:
        plain = _spawn(workload, seed, seconds, False, smoke)
        traced = _spawn(workload, seed, seconds, True, smoke)
        correct = correct and plain["correct"] and traced["correct"]
        summary[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_share": plain["failed"] / plain["attempted"],
            # the difference between the two runs is the tracing overhead
            "trace_overhead_share_two_runs": 1.0
            - traced["metrics"]["bench.traced_throughput_fps"]["value"]
            / plain["metrics"]["throughput_fps"]["value"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
        print(f"\n== {workload}  correct={summary[workload]['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for section in ("end_to_end", "per_layer"):
            for name, cell in summary[workload][section].items():
                if section == "per_layer" and cell["value"] == 0.0:
                    continue  # a layer idle or unobservable on this workload
                print(f"  {name:<44} {cell['value']:>14.4f} {cell['unit']}")
        print(f"  {'trace overhead (traced vs untraced run)':<44} "
              f"{summary[workload]['trace_overhead_share_two_runs']:>14.4f} share")
    ratio = (
        summary["video_adascale"]["end_to_end"]["frame_ms_p50"]["value"]
        / summary["video_fixed"]["end_to_end"]["frame_ms_p50"]["value"]
    )
    print(f"\nvideo_adascale / video_fixed frame_ms_p50 (untraced runs): {ratio:.4f} "
          "(the paper says < 1)")
    payload = {
        "claim": None,
        "seed": seed,
        "seconds": seconds,
        "command": declared["command"],
        "env": env.describe(),
        "adascale_vs_fixed_frame_ms_p50_ratio": ratio,
        "workloads": summary,
    }
    path = OUT_DIR / f"all.seed{seed}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0 if correct else 1


def run_repeat(repeats: int, seed: int, seconds: float, smoke: bool) -> int:
    """Run-to-run spread of every end-to-end metric against its bound."""
    from harness import stats

    bounds = {m["name"]: m["bound"] for m in _declared()["end_to_end"]}
    rows = []
    worst = 0.0
    for workload in WORKLOADS:
        runs = [_spawn(workload, seed + i, seconds, False, smoke) for i in range(repeats)]
        if not all(run["correct"] and run["failed"] == 0 for run in runs):
            raise SystemExit(f"{workload}: a run was incorrect or had failed frames")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            spread = stats.quartile_spread(values)
            if name != "setup_s":
                worst = max(worst, spread / bound)
            rows.append(
                {
                    "workload": workload, "metric": name, "min": min(values),
                    "median": statistics.median(values), "max": max(values),
                    "spread": spread, "bound": bound, "spread_over_bound": spread / bound,
                }  # fmt: skip
            )
    print(f"{'workload':<17}{'metric':<18}{'min':>11}{'median':>11}{'max':>11}"
          f"{'IQR/med':>9}{'bound':>7}{'÷bound':>8}")
    for row in rows:
        print(f"{row['workload']:<17}{row['metric']:<18}{row['min']:>11.3f}"
              f"{row['median']:>11.3f}{row['max']:>11.3f}{row['spread']:>9.3f}"
              f"{row['bound']:>7.2f}{row['spread_over_bound']:>8.2f}")
    path = OUT_DIR / f"repeat.seed{seed}.json"
    path.write_text(json.dumps({"repeats": repeats, "rows": rows}, indent=2) + "\n")
    print(f"worst spread ÷ bound (setup_s aside): {worst:.2f}  — wrote "
          f"{path.relative_to(REPO_ROOT)}")
    return 0 if worst <= 1.0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--all", action="store_true", help="every workload, untraced + traced")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N untraced runs per workload (seeds SEED..SEED+N-1); print spreads")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; finishes in seconds")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(_declared()["run_seconds"])
    if args.all:
        return run_all(args.seed, seconds, args.smoke)
    if args.repeat:
        return run_repeat(args.repeat, args.seed, seconds, args.smoke)
    if args.workload is None:
        parser.error("one of --workload, --all or --repeat is required")
    result = run_one(args.workload, args.seed, seconds, bool(args.trace or args.traced), args.smoke)
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
