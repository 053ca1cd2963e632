"""Trace-driven cluster workloads: reproducible traffic, not one arrival knob.

A scenario is a *generator of traces*: given a :class:`ScenarioConfig` it
produces a :class:`WorkloadTrace` — a deterministic, time-ordered sequence of
``open`` / ``frame`` / ``close`` events over many streams — which the cluster
controller replays against real process shards or the virtual-time engine.
Traces serialize to JSONL (:meth:`WorkloadTrace.save_jsonl`), so a workload
observed once (or generated once) can be replayed bit-for-bit anywhere; the
``trace`` scenario is exactly that replay.

The catalog (registered in :data:`repro.registries.CLUSTER_SCENARIOS`):

* ``steady`` — fixed stream population, Poisson arrivals; the baseline and
  the saturating load of the scaling benchmark;
* ``diurnal`` — the stream population follows a day/night cycle (raised-
  cosine between base and peak), the classic planetary traffic envelope;
* ``flash_crowd`` — a sudden crowd of ``peak_multiplier × num_streams`` extra
  streams joins mid-trace and leaves again: stream churn plus a rate spike,
  the admission-control stress test;
* ``heavy_tail`` — open-loop stream churn with Pareto(``tail_alpha``) session
  lengths: most streams are short, a few are very long — the population mix
  that defeats naive per-stream provisioning;
* ``slo_surge`` — a sustained overload plateau (``peak_multiplier ×`` the
  baseline rate) between two calm phases; the scenario the ScaleGovernor must
  survive by degrading scale instead of shedding;
* ``trace`` — replay a JSONL trace recorded earlier (``trace_path``).

Per-stream arrival processes reuse the :data:`~repro.registries
.ARRIVAL_PATTERNS` machinery where they can; the time-varying ones are
generated by thinning a homogeneous Poisson process, the standard NHPP
construction, so intensity envelopes are exact in expectation and fully
deterministic under the scenario seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.config import SerializableConfig
from repro.registries import ARRIVAL_PATTERNS, CLUSTER_SCENARIOS

__all__ = [
    "ScenarioConfig",
    "TraceEvent",
    "WorkloadTrace",
    "build_scenario",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
]

#: Event kinds, in the order ties at one timestamp must resolve: a stream
#: opens before its first frame, and closes only after its last frame.
_KIND_ORDER = {"open": 0, "frame": 1, "close": 2}


@dataclass(frozen=True)
class ScenarioConfig(SerializableConfig):
    """One trace-driven workload: shape, intensity, and seed.

    ``name`` selects a generator from ``CLUSTER_SCENARIOS`` (``diurnal``,
    ``flash_crowd``, ``heavy_tail``, ``slo_surge``, ``steady``, ``trace``);
    the remaining fields parameterise it.  Shape-specific fields are ignored
    by scenarios that do not use them, so one config class covers the whole
    catalog and stays trivially serializable.
    """

    name: str = "flash_crowd"
    #: trace horizon in (virtual) seconds; streams still open at the end close
    duration_s: float = 30.0
    #: baseline number of concurrent streams
    num_streams: int = 8
    #: per-stream mean arrival rate at baseline intensity
    rate_fps: float = 30.0
    seed: int = 0
    #: peak workload intensity as a multiple of baseline (diurnal peak height,
    #: flash-crowd crowd size, slo_surge overload factor)
    peak_multiplier: float = 4.0
    #: when the perturbation starts / how long it lasts, as trace fractions
    surge_start_frac: float = 0.35
    surge_duration_frac: float = 0.3
    #: Pareto tail index of heavy_tail session lengths (smaller = heavier)
    tail_alpha: float = 1.3
    #: JSONL file of a recorded trace (the ``trace`` scenario replays it)
    trace_path: str = ""

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {self.num_streams}")
        if self.rate_fps <= 0:
            raise ValueError(f"rate_fps must be positive, got {self.rate_fps}")
        if self.peak_multiplier < 1.0:
            raise ValueError(
                f"peak_multiplier must be >= 1, got {self.peak_multiplier}"
            )
        if not 0.0 <= self.surge_start_frac < 1.0:
            raise ValueError(
                f"surge_start_frac must be in [0, 1), got {self.surge_start_frac}"
            )
        if not 0.0 < self.surge_duration_frac <= 1.0:
            raise ValueError(
                f"surge_duration_frac must be in (0, 1], got {self.surge_duration_frac}"
            )
        if self.tail_alpha <= 1.0:
            raise ValueError(
                f"tail_alpha must be > 1 (finite mean), got {self.tail_alpha}"
            )


@dataclass(frozen=True)
class TraceEvent:
    """One workload event (times are seconds from trace start)."""

    time_s: float
    stream_id: int
    kind: str  # "open" | "frame" | "close"
    frame_index: int = 0

    def to_json(self) -> str:
        """One-line JSON form (the JSONL record)."""
        # Full float precision: JSON repr round-trips doubles exactly, so a
        # saved trace replays bit-for-bit.
        return json.dumps(
            {
                "t": float(self.time_s),
                "stream": int(self.stream_id),
                "kind": self.kind,
                "frame": int(self.frame_index),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Parse one JSONL record."""
        record = json.loads(line)
        return cls(
            time_s=float(record["t"]),
            stream_id=int(record["stream"]),
            kind=str(record["kind"]),
            frame_index=int(record.get("frame", 0)),
        )


class WorkloadTrace:
    """A time-ordered, replayable sequence of workload events."""

    def __init__(self, events: Iterable[TraceEvent], name: str = "trace") -> None:
        self.name = name
        self.events: list[TraceEvent] = sorted(
            events,
            key=lambda e: (e.time_s, _KIND_ORDER.get(e.kind, 3), e.stream_id, e.frame_index),
        )
        self._validate()

    def _validate(self) -> None:
        opened: set[int] = set()
        closed: set[int] = set()
        for event in self.events:
            if event.kind not in _KIND_ORDER:
                raise ValueError(f"unknown trace event kind {event.kind!r}")
            if event.kind == "open":
                if event.stream_id in opened:
                    raise ValueError(f"stream {event.stream_id} opened twice")
                opened.add(event.stream_id)
            elif event.stream_id not in opened or event.stream_id in closed:
                raise ValueError(
                    f"{event.kind} event for stream {event.stream_id} outside its "
                    "open/close window"
                )
            if event.kind == "close":
                closed.add(event.stream_id)

    # -- introspection -------------------------------------------------------
    @property
    def num_streams(self) -> int:
        """Distinct streams the trace opens."""
        return sum(1 for event in self.events if event.kind == "open")

    @property
    def num_frames(self) -> int:
        """Total frame arrivals."""
        return sum(1 for event in self.events if event.kind == "frame")

    @property
    def duration_s(self) -> float:
        """Time of the last event (0.0 for an empty trace)."""
        return self.events[-1].time_s if self.events else 0.0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WorkloadTrace) and self.events == other.events

    # -- JSONL round-trip ----------------------------------------------------
    def save_jsonl(self, path: str | Path) -> Path:
        """Write the trace as JSONL (one event per line, ``#`` header comment)."""
        path = Path(path)
        lines = [f"# repro cluster trace: {self.name}"]
        lines.extend(event.to_json() for event in self.events)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load_jsonl(cls, path: str | Path, name: str | None = None) -> "WorkloadTrace":
        """Read a trace written by :meth:`save_jsonl` (or recorded elsewhere)."""
        path = Path(path)
        events = [
            TraceEvent.from_json(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        return cls(events, name=name if name is not None else path.stem)


# -- stream construction helpers ---------------------------------------------
def _stream_events(
    stream_id: int,
    open_s: float,
    frame_times: Sequence[float],
    close_s: float | None = None,
) -> list[TraceEvent]:
    """Open/frames/close events of one stream from absolute frame times."""
    events = [TraceEvent(time_s=float(open_s), stream_id=stream_id, kind="open")]
    events.extend(
        TraceEvent(time_s=float(t), stream_id=stream_id, kind="frame", frame_index=i)
        for i, t in enumerate(frame_times)
    )
    last = max([open_s, *map(float, frame_times)])
    events.append(
        TraceEvent(
            time_s=float(close_s) if close_s is not None else last + 1e-6,
            stream_id=stream_id,
            kind="close",
        )
    )
    return events


def _poisson_times(
    rng: np.random.Generator, start_s: float, end_s: float, rate_fps: float
) -> np.ndarray:
    """Homogeneous Poisson arrival times on [start, end)."""
    if end_s <= start_s or rate_fps <= 0:
        return np.empty(0)
    times = start_s + np.cumsum(rng.exponential(1.0 / rate_fps, size=max(
        8, int(2 * rate_fps * (end_s - start_s)) + 8
    )))
    return times[times < end_s]


def _thinned_times(
    rng: np.random.Generator,
    start_s: float,
    end_s: float,
    peak_rate_fps: float,
    intensity: Callable[[float], float],
) -> np.ndarray:
    """Non-homogeneous Poisson times via thinning (intensity in [0, 1])."""
    candidates = _poisson_times(rng, start_s, end_s, peak_rate_fps)
    if candidates.size == 0:
        return candidates
    keep = rng.uniform(size=candidates.size) < np.clip(
        [intensity(t) for t in candidates], 0.0, 1.0
    )
    return candidates[keep]


# -- scenario generators ------------------------------------------------------
@CLUSTER_SCENARIOS.register("steady")
def steady_scenario(config: ScenarioConfig) -> WorkloadTrace:
    """Fixed stream population, constant per-stream Poisson rate."""
    rng = np.random.default_rng(config.seed)
    events: list[TraceEvent] = []
    for stream_id in range(config.num_streams):
        stream_rng = np.random.default_rng(rng.integers(0, 2**63))
        times = _poisson_times(stream_rng, 0.0, config.duration_s, config.rate_fps)
        events.extend(_stream_events(stream_id, 0.0, times, close_s=config.duration_s))
    return WorkloadTrace(events, name="steady")


@CLUSTER_SCENARIOS.register("diurnal")
def diurnal_scenario(config: ScenarioConfig) -> WorkloadTrace:
    """Day/night cycle: per-stream rate follows a raised cosine over the trace.

    Intensity swings between the base rate and ``peak_multiplier ×`` it, with
    the trough at the trace boundaries and the peak in the middle — one
    "day" compressed into ``duration_s``.
    """
    rng = np.random.default_rng(config.seed)
    peak_rate = config.rate_fps * config.peak_multiplier
    duration = config.duration_s

    def intensity(t: float) -> float:
        envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / duration))  # 0 → 1 → 0
        rate = config.rate_fps + (peak_rate - config.rate_fps) * envelope
        return rate / peak_rate

    events: list[TraceEvent] = []
    for stream_id in range(config.num_streams):
        stream_rng = np.random.default_rng(rng.integers(0, 2**63))
        times = _thinned_times(stream_rng, 0.0, duration, peak_rate, intensity)
        events.extend(_stream_events(stream_id, 0.0, times, close_s=duration))
    return WorkloadTrace(events, name="diurnal")


@CLUSTER_SCENARIOS.register("flash_crowd")
def flash_crowd_scenario(config: ScenarioConfig) -> WorkloadTrace:
    """A crowd of extra streams joins mid-trace and leaves again.

    Baseline streams run for the whole trace; at ``surge_start_frac`` an
    additional ``(peak_multiplier - 1) × num_streams`` streams open within a
    short ramp, stream for ``surge_duration_frac`` of the trace, then close.
    Stresses stream admission, placement and the shed path simultaneously.
    """
    rng = np.random.default_rng(config.seed)
    duration = config.duration_s
    surge_start = config.surge_start_frac * duration
    surge_end = min(duration, surge_start + config.surge_duration_frac * duration)
    crowd = int(round((config.peak_multiplier - 1.0) * config.num_streams))
    events: list[TraceEvent] = []
    for stream_id in range(config.num_streams):
        stream_rng = np.random.default_rng(rng.integers(0, 2**63))
        times = _poisson_times(stream_rng, 0.0, duration, config.rate_fps)
        events.extend(_stream_events(stream_id, 0.0, times, close_s=duration))
    # The crowd's join ramp can never spill past the surge window, or a
    # crowd stream would open after its own close time (invalid trace).
    ramp = min(max(0.02 * duration, 1e-3), 0.5 * (surge_end - surge_start))
    for offset in range(crowd):
        stream_id = config.num_streams + offset
        stream_rng = np.random.default_rng(rng.integers(0, 2**63))
        open_s = surge_start + stream_rng.uniform(0.0, max(ramp, 0.0))
        times = _poisson_times(stream_rng, open_s, surge_end, config.rate_fps)
        events.extend(_stream_events(stream_id, open_s, times, close_s=surge_end))
    return WorkloadTrace(events, name="flash_crowd")


@CLUSTER_SCENARIOS.register("heavy_tail")
def heavy_tail_scenario(config: ScenarioConfig) -> WorkloadTrace:
    """Open-loop stream churn with Pareto-distributed session lengths.

    Streams arrive as a Poisson process sized so the *expected* concurrent
    population is ``num_streams``; each lives Pareto(``tail_alpha``) long.
    Most sessions are brief, a few span most of the trace — the heavy-tailed
    mix that keeps routers honest (a "least-loaded" choice made at open time
    can look very wrong an hour later).
    """
    rng = np.random.default_rng(config.seed)
    duration = config.duration_s
    mean_session = duration / 4.0
    # Little's law: population = arrival_rate * mean_session.
    stream_arrival_rate = config.num_streams / mean_session
    opens = _poisson_times(rng, 0.0, duration, stream_arrival_rate)
    # Seed an initial population so the trace does not start empty.
    opens = np.concatenate([np.zeros(max(config.num_streams // 2, 1)), opens])
    pareto_scale = mean_session * (config.tail_alpha - 1.0) / config.tail_alpha
    events: list[TraceEvent] = []
    for stream_id, open_s in enumerate(opens):
        stream_rng = np.random.default_rng(rng.integers(0, 2**63))
        session = pareto_scale * (1.0 + stream_rng.pareto(config.tail_alpha))
        close_s = min(duration, open_s + session)
        times = _poisson_times(stream_rng, open_s, close_s, config.rate_fps)
        events.extend(_stream_events(stream_id, open_s, times, close_s=close_s))
    return WorkloadTrace(events, name="heavy_tail")


@CLUSTER_SCENARIOS.register("slo_surge")
def slo_surge_scenario(config: ScenarioConfig) -> WorkloadTrace:
    """Calm → sustained overload plateau → calm, at fixed stream population.

    During the plateau every stream submits at ``peak_multiplier ×`` its base
    rate — offered load deliberately beyond what the shards can serve at full
    quality.  A cluster without a governor watches its queues (and p95) grow
    for the whole plateau; one with the ScaleGovernor steps the scale caps
    down, serves faster, and holds the SLO without shedding a frame.
    """
    rng = np.random.default_rng(config.seed)
    duration = config.duration_s
    surge_start = config.surge_start_frac * duration
    surge_end = min(duration, surge_start + config.surge_duration_frac * duration)
    peak_rate = config.rate_fps * config.peak_multiplier

    def intensity(t: float) -> float:
        rate = peak_rate if surge_start <= t < surge_end else config.rate_fps
        return rate / peak_rate

    events: list[TraceEvent] = []
    for stream_id in range(config.num_streams):
        stream_rng = np.random.default_rng(rng.integers(0, 2**63))
        times = _thinned_times(stream_rng, 0.0, duration, peak_rate, intensity)
        events.extend(_stream_events(stream_id, 0.0, times, close_s=duration))
    return WorkloadTrace(events, name="slo_surge")


@CLUSTER_SCENARIOS.register("trace")
def trace_scenario(config: ScenarioConfig) -> WorkloadTrace:
    """Replay a JSONL trace recorded earlier (``config.trace_path``)."""
    if not config.trace_path:
        raise ValueError("the 'trace' scenario needs scenario.trace_path to be set")
    return WorkloadTrace.load_jsonl(config.trace_path)


def build_scenario(config: ScenarioConfig) -> WorkloadTrace:
    """Resolve ``config.name`` through the registry and generate its trace."""
    config.validate()
    return CLUSTER_SCENARIOS.get(config.name)(config)


# -- single-stream arrival patterns (plain LoadGenerator integration) ---------
@ARRIVAL_PATTERNS.register("diurnal")
def diurnal_arrivals(
    rng: np.random.Generator, num_frames: int, mean_gap: float, burst_size: int
) -> np.ndarray:
    """Raised-cosine rate cycle for one stream (LoadGenerator pattern).

    The stream's rate swings between 0.25× and ~1.75× the nominal rate over
    one cycle spanning the stream, preserving the average rate.
    """
    horizon = num_frames * mean_gap
    peak_rate = 1.75 / mean_gap

    def intensity(t: float) -> float:
        envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / horizon))  # 0 → 1 → 0
        rate = (0.25 + 1.5 * envelope) / mean_gap
        return rate / peak_rate

    times: list[float] = []
    t = 0.0
    while len(times) < num_frames:
        t += rng.exponential(1.0 / peak_rate)
        if rng.uniform() < intensity(t % horizon):
            times.append(t)
    return np.array(times)


@ARRIVAL_PATTERNS.register("flash-crowd")
def flash_crowd_arrivals(
    rng: np.random.Generator, num_frames: int, mean_gap: float, burst_size: int
) -> np.ndarray:
    """Steady arrivals with a dense mid-stream clump (LoadGenerator pattern).

    Half the frames arrive at a uniform cadence; the other half land inside a
    window one tenth of the horizon wide at its centre — a single-stream
    miniature of the cluster flash-crowd scenario.
    """
    horizon = num_frames * mean_gap
    steady = num_frames - num_frames // 2
    clump = num_frames - steady
    steady_times = rng.uniform(0.0, horizon, size=steady)
    centre = 0.5 * horizon
    clump_times = rng.uniform(centre - 0.05 * horizon, centre + 0.05 * horizon, size=clump)
    return np.sort(np.concatenate([steady_times, clump_times]))
