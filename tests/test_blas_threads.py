"""One executor, one core: ``import repro`` pins the loaded OpenBLAS to one thread.

Every case runs in a fresh interpreter — the pin is process state set at
package import, so an in-process test would only ever see this session's.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.nn.runtime import blas_threads

SRC = str(Path(__file__).resolve().parents[1] / "src")

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="NumPy is not linked against a controllable OpenBLAS"
)


def _run(code: str | Path, **env: str) -> str:
    """Run ``code`` (source or a script path) in a fresh interpreter, without
    inherited thread variables."""
    clean = {
        key: value
        for key, value in os.environ.items()
        if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    clean["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, str(code)] if isinstance(code, Path) else [sys.executable, "-c", code],
        env={**clean, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


_READ_BACK = "from repro.nn.runtime import blas_threads; print(blas_threads())"


def test_import_pins_blas_after_numpy():
    assert _run("import numpy, repro; " + _READ_BACK) == "1"


def test_user_thread_variable_is_left_alone():
    assert _run("import numpy, repro; " + _READ_BACK, OPENBLAS_NUM_THREADS="2") == "2"


def test_spawned_child_is_pinned(tmp_path):
    """The process-shard path: a spawn child pins itself when it imports repro."""
    script = tmp_path / "spawn_probe.py"
    script.write_text("""
import multiprocessing as mp

def probe(queue):
    import repro
    from repro.nn.runtime import blas_threads
    queue.put(blas_threads())

if __name__ == "__main__":
    ctx = mp.get_context("spawn")
    queue = ctx.Queue()
    child = ctx.Process(target=probe, args=(queue,))
    child.start()
    print(queue.get(timeout=60))
    child.join(60)
""")
    assert _run(script) == "1"


def test_env_fingerprint_records_the_read_back_count():
    code = (
        "import repro; from repro.nn.runtime import blas_threads; "
        "from repro.profiling.benchjson import env_fingerprint; "
        "env = env_fingerprint(); "
        "print(env['blas_threads'] == blas_threads() == 1, env['usable_cores'] >= 1)"
    )
    assert _run(code) == "True True"


def test_no_controllable_blas_is_a_no_op():
    code = (
        "import repro.nn.runtime as runtime; "
        "runtime._openblas_paths = lambda: []; "
        "print(runtime.pin_blas_threads(), runtime.blas_threads())"
    )
    assert _run(code) == "None None"


def test_pinning_twice_is_harmless():
    code = (
        "import repro; from repro.nn.runtime import pin_blas_threads; "
        "print(pin_blas_threads(), pin_blas_threads())"
    )
    assert _run(code) == "1 1"
