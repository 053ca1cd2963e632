"""Scoped, nestable, thread-aware stage timers.

The hot path is instrumented with :func:`stage`::

    with stage("detect/backbone"):
        features = backbone(tensor)

When no profiler is active, :func:`stage` returns a shared null context — no
allocation, no clock read, no state mutation — so instrumentation can live
permanently in production code.  Activating a :class:`StageProfiler` (it is a
context manager) turns every :func:`stage` site into a timed scope:

* **nestable** — scopes entered while another scope is open record under a
  ``outer/inner`` path, so per-layer timings roll up under the stage that ran
  them;
* **thread-aware** — each thread keeps its own scope stack and its own
  ``path -> samples`` dict, so concurrent serving workers never contend on a
  lock per sample and never interleave each other's nesting;
  :meth:`StageProfiler.stages` folds all threads together at read time.
"""

from __future__ import annotations

import threading
import time

__all__ = ["StageProfiler", "stage", "active_profiler"]


#: The active profiler (at most one).  Written under ``_ACTIVATION_LOCK``;
#: read without locking on the hot path — a plain attribute read is atomic.
_ACTIVE: "StageProfiler | None" = None
_ACTIVATION_LOCK = threading.Lock()

#: Per-thread scope stack (shared by all profilers; only one can be active).
_TLS = threading.local()


def active_profiler() -> "StageProfiler | None":
    """The currently enabled profiler, or None when profiling is off."""
    return _ACTIVE


class _NullScope:
    """Shared do-nothing context returned by :func:`stage` when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


class _StageScope:
    """One timed scope; records under the thread's current nesting path."""

    __slots__ = ("_name", "_profiler", "_path", "_start")

    def __init__(self, name: str, profiler: "StageProfiler") -> None:
        self._name = name
        self._profiler = profiler

    def __enter__(self) -> "_StageScope":
        stack = getattr(_TLS, "stack", None)
        if stack is None:
            stack = _TLS.stack = []
        stack.append(self._name)
        self._path = "/".join(stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        stack = _TLS.stack
        if stack:
            stack.pop()
        self._profiler._record(self._path, elapsed)


def stage(name: str) -> "_StageScope | _NullScope":
    """Context manager timing ``name`` under the active profiler.

    Returns the shared null scope when no profiler is active, so call sites
    cost one global read when profiling is off.
    """
    profiler = _ACTIVE
    if profiler is None:
        return _NULL_SCOPE
    return _StageScope(name, profiler)


class StageProfiler:
    """Accumulates per-stage wall-clock samples from any number of threads.

    Use as a context manager to activate globally::

        profiler = StageProfiler()
        with profiler:
            run_workload()
        print(profiler.format())

    Only one profiler can be active at a time; nested activation raises.
    """

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        #: (thread name, path -> seconds samples) per thread that recorded at
        #: least one sample.
        self._threads: list[tuple[str, dict[str, list[float]]]] = []

    # -- activation ------------------------------------------------------
    def __enter__(self) -> "StageProfiler":
        global _ACTIVE
        with _ACTIVATION_LOCK:
            if _ACTIVE is not None:
                raise RuntimeError("another StageProfiler is already active")
            _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        with _ACTIVATION_LOCK:
            if _ACTIVE is self:
                _ACTIVE = None

    # -- recording -------------------------------------------------------
    def _record(self, path: str, seconds: float) -> None:
        samples = getattr(self._local, "samples", None)
        if samples is None:
            samples = self._local.samples = {}
            with self._registry_lock:
                self._threads.append((threading.current_thread().name, samples))
        samples.setdefault(path, []).append(seconds)

    # -- reading ---------------------------------------------------------
    def _snapshot(self) -> list[tuple[str, dict[str, list[float]]]]:
        with self._registry_lock:
            return list(self._threads)

    def thread_count(self) -> int:
        """Number of threads that recorded at least one sample."""
        return len(self._snapshot())

    def per_thread(self) -> dict[str, dict[str, int]]:
        """Per-thread sample counts keyed by thread name, then stage path."""
        return {
            name: {path: len(values) for path, values in samples.items()}
            for name, samples in self._snapshot()
        }

    def stages(self) -> dict[str, dict[str, float]]:
        """Per-path statistics, ordered by descending total time.

        Each value holds ``count``, ``total_s`` and ``mean_ms`` — the shape
        the ``BENCH_*.json`` per-stage breakdown uses.
        """
        merged: dict[str, list[float]] = {}
        for _, samples in self._snapshot():
            for path, values in samples.items():
                merged.setdefault(path, []).extend(values)
        stats = {
            path: {
                "count": len(values),
                "total_s": float(sum(values)),
                "mean_ms": 1000.0 * sum(values) / len(values),
            }
            for path, values in merged.items()
        }
        return dict(
            sorted(stats.items(), key=lambda item: item[1]["total_s"], reverse=True)
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot: stages plus the recording thread count."""
        return {"threads": self.thread_count(), "stages": self.stages()}

    def format(self, title: str | None = None) -> str:
        """Human-readable per-stage table (heaviest stages first)."""
        from repro.evaluation.reporting import format_float, format_table

        rows = [
            [path, str(int(stat["count"])), format_float(stat["total_s"] * 1000.0),
             format_float(stat["mean_ms"], 3)]
            for path, stat in self.stages().items()
        ]
        return format_table(
            ["Stage", "Calls", "Total (ms)", "Mean (ms)"],
            rows,
            title=title or "Per-stage time breakdown",
        )
