"""The adaptive control plane: SLO feedback and occupancy autoscaling.

Two policies close the loop between observed serving telemetry and the
knobs the rest of the stack exposes:

* :class:`ScaleGovernor` — per-shard quality control.  It reads each
  shard's *rolling* p95 end-to-end latency and queue depth and walks a
  degradation ladder: first the AdaScale scale cap steps down rung by rung
  (service time tracks resized image area, so one rung is a large capacity
  gain at a small accuracy cost — the paper's trade-off turned into a
  runtime actuator), then the micro-batch bound shrinks toward
  ``min_batch_size``.  Restoration is deliberately slower than degradation
  (`release_steps` consecutive calm periods), the classic asymmetric
  AIMD-style loop that avoids oscillating on its own latency echo.
* :class:`Autoscaler` — cluster-width control.  It steers the mean shard
  occupancy (offered work per unit of service capacity) toward a target by
  requesting shard adds above ``scale_up_at`` and drains below
  ``scale_down_at``, one step per decision with a cooldown.

Both operate on a narrow *control view* of a shard (rolling p95, queue depth,
occupancy, the two setters), so the same policy instances drive real
process shards (:class:`~repro.cluster.procpool.ProcessReplica`) and the
virtual-time simulation — the control plane cannot tell the difference, which
is exactly what makes the scenario suite's governor results transferable.

Every decision is recorded as a :class:`GovernorAction` — the
scale-degradation timeline reported by :class:`~repro.cluster.report
.ClusterReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import AutoscalerConfig, GovernorConfig
from repro.observability.trace import active_tracer

__all__ = ["GovernorAction", "ScaleGovernor", "Autoscaler"]


@dataclass(frozen=True)
class GovernorAction:
    """One control decision (a row of the degradation timeline)."""

    time_s: float
    shard_id: int
    action: str  # "degrade" | "restore" | "scale-up" | "scale-down"
    knob: str  # "scale_cap" | "max_batch_size" | "shards"
    old: int
    new: int
    p95_ms: float
    queue_depth: int
    reason: str

    def format(self) -> str:
        """One timeline line."""
        return (
            f"t={self.time_s:8.2f}s shard {self.shard_id}: {self.action} "
            f"{self.knob} {self.old} -> {self.new} ({self.reason})"
        )


@dataclass
class _ShardLoopState:
    """Per-shard controller memory."""

    rung: int = 0  # 0 = full quality; ladder index of the imposed cap
    batch_cut: int = 0  # how many halvings of the batch bound are in force
    calm_streak: int = 0


class ScaleGovernor:
    """Holds each shard's rolling p95 under target by degrading AdaScale scale."""

    def __init__(
        self,
        ladder: tuple[int, ...] | list[int],
        config: GovernorConfig | None = None,
    ) -> None:
        self.config = config if config is not None else GovernorConfig()
        self.config.validate()
        self.ladder = tuple(int(s) for s in ladder)
        if not self.ladder or self.ladder != tuple(sorted(self.ladder, reverse=True)):
            raise ValueError(f"ladder must be non-empty descending scales, got {ladder}")
        self._states: dict[int, _ShardLoopState] = {}
        self.actions: list[GovernorAction] = []

    # -- the control step ----------------------------------------------------
    def step(self, shards, now: float) -> list[GovernorAction]:
        """Run one control period over ``shards``; returns the actions taken.

        Each shard is judged on its own rolling window: pressure is p95 over
        target *or* queue depth over the alarm threshold (the queue leads,
        latency lags).  Degrade immediately on pressure; restore one rung
        only after ``release_steps`` consecutive calm periods.
        """
        taken: list[GovernorAction] = []
        for shard in shards:
            state = self._states.setdefault(shard.shard_id, _ShardLoopState())
            stats = shard.recent_latency(self.config.window)
            depth = shard.queue_depth
            if stats.count < self.config.warmup_completions and depth <= self.config.queue_alarm_depth:
                continue
            p95_ms = stats.p95_ms if stats.count else 0.0
            pressured = (
                stats.count >= self.config.warmup_completions
                and p95_ms > self.config.target_p95_ms
            ) or depth > self.config.queue_alarm_depth
            calm = (
                stats.count >= self.config.warmup_completions
                and p95_ms < self.config.release_fraction * self.config.target_p95_ms
                and depth <= self.config.queue_alarm_depth // 2
            )
            if pressured:
                state.calm_streak = 0
                # Panic stepping: a tail 2x over target (or a queue 4x over the
                # alarm) means one rung per period reacts too slowly — the
                # backlog compounds faster than the loop walks the ladder.
                rungs = (
                    2
                    if (
                        p95_ms > 2.0 * self.config.target_p95_ms
                        or depth > 4 * self.config.queue_alarm_depth
                    )
                    else 1
                )
                for _ in range(rungs):
                    action = self._degrade(shard, state, now, p95_ms, depth)
                    if action is None:
                        break
                    taken.append(action)
            elif calm and (state.rung > 0 or state.batch_cut > 0):
                state.calm_streak += 1
                if state.calm_streak >= self.config.release_steps:
                    state.calm_streak = 0
                    action = self._restore(shard, state, now, p95_ms, depth)
                    if action is not None:
                        taken.append(action)
            else:
                state.calm_streak = 0
        tracer = active_tracer()
        if tracer is not None:
            for action in taken:
                tracer.decision(action)
        self.actions.extend(taken)
        return taken

    # -- knob walking --------------------------------------------------------
    def _degrade(self, shard, state, now, p95_ms, depth) -> GovernorAction | None:
        if state.rung < len(self.ladder) - 1:
            old = self.ladder[state.rung]
            state.rung += 1
            new = self.ladder[state.rung]
            shard.set_scale_cap(new)
            return GovernorAction(
                time_s=now,
                shard_id=shard.shard_id,
                action="degrade",
                knob="scale_cap",
                old=old,
                new=new,
                p95_ms=float(p95_ms),
                queue_depth=int(depth),
                reason=f"p95 {p95_ms:.1f}ms / depth {depth} over target",
            )
        old_batch = shard.max_batch_size
        new_batch = max(self.config.min_batch_size, old_batch // 2)
        if new_batch < old_batch:
            state.batch_cut += 1
            shard.set_max_batch_size(new_batch)
            return GovernorAction(
                time_s=now,
                shard_id=shard.shard_id,
                action="degrade",
                knob="max_batch_size",
                old=old_batch,
                new=new_batch,
                p95_ms=float(p95_ms),
                queue_depth=int(depth),
                reason="scale ladder exhausted; shrinking batch for latency",
            )
        return None  # fully degraded; nothing left to trade

    def _restore(self, shard, state, now, p95_ms, depth) -> GovernorAction | None:
        if state.batch_cut > 0:
            old_batch = shard.max_batch_size
            state.batch_cut -= 1
            # Recompute from the baseline rather than doubling the current
            # value: repeated floor-halving is not invertible by doubling
            # (baseline 6 → 3 → 1 would "restore" to 4 forever), but
            # baseline // 2**cuts retraces the exact degrade ladder.
            new_batch = max(
                self.config.min_batch_size,
                shard.baseline_batch_size // (2 ** state.batch_cut),
            )
            shard.set_max_batch_size(new_batch)
            return GovernorAction(
                time_s=now,
                shard_id=shard.shard_id,
                action="restore",
                knob="max_batch_size",
                old=old_batch,
                new=new_batch,
                p95_ms=float(p95_ms),
                queue_depth=int(depth),
                reason=f"p95 {p95_ms:.1f}ms well under target",
            )
        if state.rung > 0:
            old = self.ladder[state.rung]
            state.rung -= 1
            new = self.ladder[state.rung]
            shard.set_scale_cap(new if state.rung > 0 else None)
            return GovernorAction(
                time_s=now,
                shard_id=shard.shard_id,
                action="restore",
                knob="scale_cap",
                old=old,
                new=new,
                p95_ms=float(p95_ms),
                queue_depth=int(depth),
                reason=f"p95 {p95_ms:.1f}ms well under target",
            )
        return None


class Autoscaler:
    """Steers the live shard count toward a target mean occupancy."""

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config if config is not None else AutoscalerConfig()
        self.config.validate()
        self._last_action_s = float("-inf")

    def desired_shards(self, shards, now: float) -> int:
        """How many shards the cluster should run, given current occupancy.

        One step up/down per decision with hysteresis and cooldown; within
        ``[min_shards, max_shards]`` always.  Draining shards still serving
        their residual streams count toward capacity, not toward the target.
        """
        live = [shard for shard in shards if shard.accepting]
        current = len(live)
        if current == 0:
            return self.config.min_shards
        if now - self._last_action_s < self.config.cooldown_s:
            return current
        occupancy = sum(shard.occupancy for shard in live) / current
        desired = current
        if occupancy > self.config.scale_up_at:
            desired = current + 1
        elif occupancy < self.config.scale_down_at:
            desired = current - 1
        desired = max(self.config.min_shards, min(self.config.max_shards, desired))
        if desired != current:
            self._last_action_s = now
        return desired
