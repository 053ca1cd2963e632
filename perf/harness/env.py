"""The env block recorded next to every result.

The harness never sets ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` (or any
other thread knob): it measures what ``repro serve`` / ``repro cluster`` users
get, and records the variables as it found them.
"""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # numpy too old for mode="dicts"
        return {}


def describe() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "thread_env_as_found": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
