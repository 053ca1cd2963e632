"""Reusable scratch buffers and the BLAS thread pin of the inference runtime.

Scratch buffers
---------------
``scratch(tag, shape, dtype)`` hands out a reusable, *thread-local* ndarray.
NumPy otherwise allocates a fresh buffer for every padded input and im2col
unfold; at serving rates that means thousands of large allocations per second
whose page faults show up prominently in the profile.  Each calling
thread owns one flat grow-only buffer per ``(tag, dtype)`` — an arena, not a
shape-keyed cache — and every request is a reshaped view of its front, so a
frame at a never-seen scale costs the same as a repeated one and memory is
bounded by the largest request per tag; serving workers never share (or lock)
them.  Callers must follow one rule: a scratch buffer is only valid until the
same ``tag`` is requested again on the same thread, whatever the shape —
never store one in a result object (an inference convolution consumes its
unfold at once and writes its GEMMs into a fresh output array).

BLAS thread pin
---------------
Importing :mod:`repro` calls ``pin_blas_threads()``: one executor (serving
worker, process shard, CLI caller), one core.  OpenBLAS helper threads would
oversubscribe the cores under concurrent callers and buy these small GEMMs
nothing even alone.  ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` opt out.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["blas_threads", "clear_scratch", "pin_blas_threads", "scratch"]


#: Per-thread arena: ``buffers`` maps (tag, dtype) -> flat grow-only ndarray.
_SCRATCH = threading.local()


def scratch(tag: str, shape: tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
    """A reusable uninitialised thread-local buffer of the given shape.

    The buffer's contents are undefined; callers must fully overwrite it.
    """
    buffers: dict[tuple, np.ndarray] | None = getattr(_SCRATCH, "buffers", None)
    if buffers is None:
        buffers = _SCRATCH.buffers = {}
    key = (tag, np.dtype(dtype).str)
    size = math.prod(shape)
    flat = buffers.get(key)
    if flat is None or flat.size < size:
        flat = buffers[key] = np.empty(size, dtype=dtype)
    return flat[:size].reshape(shape)


def clear_scratch() -> None:
    """Drop the calling thread's scratch buffers (mainly for tests)."""
    _SCRATCH.buffers = {}


#: OpenBLAS thread setters (each with a ``_get_`` twin), newest naming first.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_paths() -> list[str]:
    """OpenBLAS libraries NumPy loaded: its wheel's own copy, then a system one."""
    package = Path(np.__file__).parent
    wheel_libs = (package.parent / "numpy.libs", package / ".dylibs")
    paths = [str(path) for libs in wheel_libs for path in sorted(libs.glob("*openblas*"))]
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths += sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:  # no procfs (macOS, Windows)
        pass
    return list(dict.fromkeys(paths))


def _blas_thread_control() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """``(set, get)`` thread-count functions of the loaded OpenBLAS, or ``None``."""
    for path in _openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter in _BLAS_SETTERS:
            getter = setter.replace("_set_", "_get_")
            if hasattr(library, setter) and hasattr(library, getter):
                return getattr(library, setter), getattr(library, getter)
    return None


def blas_threads() -> int | None:
    """The loaded OpenBLAS's thread count (``None``: no controllable BLAS)."""
    control = _blas_thread_control()
    return None if control is None else int(control[1]())


def pin_blas_threads() -> int | None:
    """Pin OpenBLAS to one thread (idempotent) unless the user set a thread
    variable; returns the count read back (``None``: no controllable BLAS)."""
    control = _blas_thread_control()
    if control and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        control[0](1)
    return None if control is None else int(control[1]())
