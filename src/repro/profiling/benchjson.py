"""Schema-versioned machine-readable benchmark artefacts (``BENCH_<name>.json``).

Every benchmark writes, next to its human-readable ``.txt`` table, a JSON
document that machines (and the CI ``bench-regression`` job) can diff:

.. code-block:: json

    {
      "schema_version": 1,
      "name": "serving",
      "fast": false,
      "env": {"python": "3.11.9", "numpy": "2.4.6", "...": "..."},
      "data": {"single_stream": {"optimized_fps": 41.2, "...": "..."}},
      "profile": {"threads": 1, "stages": {"detect/backbone": {"total_s": 1.2}}}
    }

``data`` carries the benchmark's structured metrics (throughput, latency
percentiles, batch occupancy, shed counts, table rows).  ``profile`` is an
optional per-stage time breakdown taken from a
:class:`~repro.profiling.profiler.StageProfiler`.  ``env`` fingerprints the
machine so numbers from different hosts are never compared as like-for-like
(the regression gates only read ``data``).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Mapping

from repro.nn.runtime import blas_threads

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "env_fingerprint",
    "load_bench_json",
    "validate_bench_payload",
    "write_bench_json",
]

#: Bump when the top-level payload layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Keys every payload must carry (checked by :func:`validate_bench_payload`).
_REQUIRED_KEYS = ("schema_version", "name", "env", "data")


def env_fingerprint() -> dict[str, Any]:
    """Where these numbers came from: interpreter, libraries, hardware and
    the thread budget (``blas_threads`` is read back from OpenBLAS)."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # optional: only the tests use scipy (as the resize oracle)
        scipy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cores": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
        "blas_threads": blas_threads(),
    }


def bench_payload(
    name: str,
    data: Mapping[str, Any] | None = None,
    fast: bool = False,
    profile: Any | None = None,
) -> dict[str, Any]:
    """Assemble one schema-versioned benchmark payload.

    ``profile`` may be a :class:`~repro.profiling.profiler.StageProfiler`
    (its :meth:`as_dict` is taken) or an already-built mapping.
    """
    if not name:
        raise ValueError("benchmark name must be non-empty")
    payload: dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "fast": bool(fast),
        "created_unix": time.time(),
        "created_iso": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "env": env_fingerprint(),
        "data": dict(data) if data else {},
    }
    if profile is not None:
        payload["profile"] = profile.as_dict() if hasattr(profile, "as_dict") else dict(profile)
    return payload


def validate_bench_payload(payload: Mapping[str, Any]) -> list[str]:
    """Structural schema check; returns a list of problems (empty = valid)."""
    problems = [f"missing key {key!r}" for key in _REQUIRED_KEYS if key not in payload]
    version = payload.get("schema_version")
    if "schema_version" in payload and not isinstance(version, int):
        problems.append(f"schema_version must be an int, got {type(version).__name__}")
    elif isinstance(version, int) and version > BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported {BENCH_SCHEMA_VERSION}"
        )
    if "name" in payload and not payload["name"]:
        problems.append("name must be non-empty")
    if "data" in payload and not isinstance(payload["data"], Mapping):
        problems.append("data must be a mapping")
    return problems


def bench_json_path(results_dir: str | Path, name: str) -> Path:
    """Canonical artefact path: ``<results_dir>/BENCH_<name>.json``."""
    return Path(results_dir) / f"BENCH_{name}.json"


def write_bench_json(
    results_dir: str | Path,
    name: str,
    data: Mapping[str, Any] | None = None,
    fast: bool = False,
    profile: Any | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` under ``results_dir`` and return its path."""
    payload = bench_payload(name, data=data, fast=fast, profile=profile)
    path = bench_json_path(results_dir, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def load_bench_json(path: str | Path) -> dict[str, Any]:
    """Load and validate one benchmark artefact; raises on schema violations."""
    payload = json.loads(Path(path).read_text())
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError(f"{path}: invalid benchmark payload: {'; '.join(problems)}")
    return payload
