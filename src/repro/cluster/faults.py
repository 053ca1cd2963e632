"""Fault injection for the process-parallel cluster (chaos on a schedule).

Injectors are registered components (:data:`repro.registries.FAULT_INJECTORS`)
the :class:`~repro.cluster.controller.ClusterController` fires from its tick
loop in ``mode="process"``.  The built-in ``kill-replica`` injector SIGKILLs
one shard's worker process at a configured offset into the run — the
supervisor must then detect the crash through the framed channel, migrate the
shard's live streams and respawn it within the backoff bound.  That
crash-recovery contract is what the ``cluster-process-smoke`` CI job and the
fault-injection test suite assert on every push.

The CLI accepts the compact spec syntax parsed by :func:`parse_fault_spec`::

    repro cluster --mode process --inject-fault kill-replica:shard=0,at=2.0
"""

from __future__ import annotations

from repro.config import FaultConfig
from repro.registries import FAULT_INJECTORS
from repro.utils.logging import get_logger

__all__ = ["KillReplicaInjector", "NullInjector", "build_fault_injector", "parse_fault_spec"]

_LOGGER = get_logger("cluster.faults")


@FAULT_INJECTORS.register("none")
class NullInjector:
    """No faults: the default, and the control leg of resilience experiments."""

    def __init__(self, config: FaultConfig | None = None) -> None:
        self.config = config if config is not None else FaultConfig()

    def maybe_fire(self, now: float, fleet, supervisor) -> bool:
        """Never fires."""
        return False


@FAULT_INJECTORS.register("kill-replica")
class KillReplicaInjector:
    """SIGKILL shard ``shard_id``'s worker process once, ``at_s`` into the run.

    A hard kill, not a graceful stop: the child gets no chance to flush its
    channel, so the parent sees exactly what a segfault/OOM-kill looks like —
    a truncated or closed frame stream — which is the failure mode the
    supervisor's migration/respawn path exists for.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.fired = False

    def maybe_fire(self, now: float, fleet, supervisor) -> bool:
        """Fire once when the run clock passes ``at_s``; returns whether it did."""
        if self.fired or now < self.config.at_s:
            return False
        target = next(
            (
                replica
                for replica in fleet
                if replica.shard_id == self.config.shard_id
                and hasattr(replica, "kill")
                and getattr(replica, "alive", False)
            ),
            None,
        )
        if target is None:
            return False  # shard not up yet (or already gone); keep waiting
        self.fired = True
        _LOGGER.warning(
            "injecting fault: SIGKILL shard %d (pid %s) at t=%.2fs",
            target.shard_id, target.pid, now,
        )
        target.kill()
        if supervisor is not None:
            supervisor.note_fault(now, target, kind="kill-replica")
        return True


def build_fault_injector(config: FaultConfig):
    """Resolve ``config.kind`` through the registry and instantiate it."""
    return FAULT_INJECTORS.get(config.kind)(config=config)


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse the CLI's ``kind[:key=value,...]`` fault syntax.

    Examples: ``kill-replica:shard=0,at=2.0``, ``kill:at=1.5`` (``kill`` is
    shorthand for ``kill-replica``), ``none``.
    """
    kind, _, rest = spec.partition(":")
    kind = {"kill": "kill-replica"}.get(kind.strip(), kind.strip())
    kwargs: dict[str, object] = {}
    for part in rest.split(",") if rest else []:
        if not part.strip():
            continue
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ValueError(f"malformed fault parameter {part!r} in {spec!r}")
        if key in ("shard", "shard_id"):
            kwargs["shard_id"] = int(value)
        elif key in ("at", "at_s"):
            kwargs["at_s"] = float(value)
        else:
            raise ValueError(
                f"unknown fault parameter {key!r} in {spec!r} "
                "(expected shard=<id> and/or at=<seconds>)"
            )
    config = FaultConfig(kind=kind, **kwargs)
    config.validate()  # reject unknown kinds at parse time, not mid-scenario
    return config
