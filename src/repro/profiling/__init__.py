"""Profiling and benchmark instrumentation (`repro.profiling`).

Measurement is a first-class system component here: the same subsystem that
times the hot path also defines the machine-readable benchmark artefacts CI
gates on.  Three pieces:

* :mod:`repro.profiling.profiler` — scoped, nestable, thread-aware stage
  timers.  Instrumentation sites in
  ``nn`` / ``detection`` / ``core`` / ``serving`` call :func:`stage`, which is
  a no-op (a shared null context, no allocation) unless a
  :class:`StageProfiler` is active, so production code pays nothing when not
  being measured.
* :mod:`repro.profiling.benchjson` — the schema-versioned ``BENCH_<name>.json``
  benchmark artefact: environment fingerprint, structured metrics and an
  optional per-stage time breakdown.  Written by the benchmark harness next to
  the human-readable ``.txt`` tables.
* :mod:`repro.profiling.regression` — structural regression gates comparing a
  results directory against committed baselines (used by the CI
  ``bench-regression`` job and ``repro bench --compare``).
"""

from repro.profiling.benchjson import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    env_fingerprint,
    load_bench_json,
    validate_bench_payload,
    write_bench_json,
)
from repro.profiling.profiler import StageProfiler, active_profiler, stage
from repro.profiling.regression import RegressionReport, compare_dirs, compare_payloads

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "RegressionReport",
    "StageProfiler",
    "active_profiler",
    "bench_payload",
    "compare_dirs",
    "compare_payloads",
    "env_fingerprint",
    "load_bench_json",
    "stage",
    "validate_bench_payload",
    "write_bench_json",
]
