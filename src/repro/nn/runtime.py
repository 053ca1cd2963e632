"""Inference-runtime options, reusable scratch buffers and the BLAS thread pin.

The profile-guided optimization pass (im2col plan cache, strided im2col
gather, precomputed anchor grids, reused im2col buffers) is **bit-exact**:
every optimization produces byte-identical numerics to the unoptimized code
path.  They are nevertheless individually toggleable so the benchmark harness
can measure the pre-optimization baseline in the same process — an honest
apples-to-apples A/B on the same machine, same build, same load.

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
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "LruCache",
    "RuntimeOptions",
    "blas_threads",
    "clear_scratch",
    "options",
    "pin_blas_threads",
    "runtime_options",
    "scratch",
]


class LruCache:
    """Small thread-safe LRU with hit/miss counters.

    Shared by the hot-path shape caches (im2col gather plans, anchor grids):
    both cache immutable values keyed by input shape, both need eviction so a
    long-running server with many tensor shapes stays bounded, and both want
    effectiveness counters for the benchmark telemetry.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: object) -> object | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


@dataclass(frozen=True)
class RuntimeOptions:
    """Toggles for the bit-exact hot-path optimizations (all on by default)."""

    #: cache (channel, row, col) im2col gather plans keyed by input shape
    im2col_plan_cache: bool = True
    #: unfold via a strided sliding-window view instead of a fancy-index gather
    fast_im2col: bool = True
    #: cache tiled anchor grids keyed by feature shape
    anchor_cache: bool = True
    #: reuse thread-local im2col pad / column buffers in inference mode
    scratch_buffers: bool = True


_OPTIONS = RuntimeOptions()
_OPTIONS_LOCK = threading.Lock()


def options() -> RuntimeOptions:
    """The process-wide runtime options (read on the hot path, no lock)."""
    return _OPTIONS


@contextmanager
def runtime_options(**overrides: bool) -> Iterator[RuntimeOptions]:
    """Temporarily override runtime options (process-wide).

    Intended for benchmarks and tests measuring the unoptimized baseline::

        with runtime_options(fast_im2col=False, im2col_plan_cache=False):
            measure_pre_optimization_path()

    The override is global (worker threads observe it too), so don't wrap
    concurrent workloads that need different settings at once.
    """
    global _OPTIONS
    with _OPTIONS_LOCK:
        previous = _OPTIONS
        _OPTIONS = replace(previous, **overrides)
    try:
        yield _OPTIONS
    finally:
        with _OPTIONS_LOCK:
            _OPTIONS = previous


#: Per-thread arena: ``buffers`` maps (tag, dtype) -> flat grow-only ndarray.
_SCRATCH = threading.local()


def scratch(tag: str, shape: tuple[int, ...], dtype: np.dtype | type) -> np.ndarray:
    """A reusable uninitialised thread-local buffer of the given shape.

    Falls back to a fresh ``np.empty`` when scratch reuse is disabled.  The
    buffer's contents are undefined; callers must fully overwrite it.
    """
    if not _OPTIONS.scratch_buffers:
        return np.empty(shape, dtype=dtype)
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
