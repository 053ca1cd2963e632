"""The component registries of the declarative build API.

Each component family with more than one member has one
:class:`~repro.utils.registry.Registry` instance here; the components
register themselves **at definition site** (the module that defines
``SyntheticVID`` also registers it), so importing a component module is all
it takes to make it buildable by name via
:func:`~repro.utils.registry.build_from_cfg`::

    from repro.registries import DATASETS, load_components
    load_components()
    dataset = DATASETS.build({"type": "synthetic-vid", "split": "val"})

This module is a leaf — it imports nothing but the registry class — so any
component module can import it without cycles.  Call :func:`load_components`
(or import :mod:`repro.api`, which does it for you) before resolving names to
make sure every built-in component module has been imported.
"""

from __future__ import annotations

from repro.utils.registry import Registry, build_from_cfg

__all__ = [
    "ACCELERATORS",
    "ARRIVAL_PATTERNS",
    "CLUSTER_SCENARIOS",
    "DATASETS",
    "EXPERIMENT_PRESETS",
    "FAULT_INJECTORS",
    "ROUTING_POLICIES",
    "SCHEDULER_POLICIES",
    "TELEMETRY_SINKS",
    "build_from_cfg",
    "load_components",
]

#: Video datasets (ImageNet-VID / YouTube-BB stand-ins), by name.
DATASETS: Registry = Registry("dataset")

#: Video-acceleration components: DFF, Seq-NMS and their AdaScale combinations.
ACCELERATORS: Registry = Registry("accelerator")

#: Admission-control policies of the serving frame scheduler.
SCHEDULER_POLICIES: Registry = Registry("backpressure-policy")

#: Arrival processes of the synthetic load generator.
ARRIVAL_PATTERNS: Registry = Registry("arrival-pattern")

#: Named experiment presets (see :mod:`repro.presets`).
EXPERIMENT_PRESETS: Registry = Registry("experiment preset")

#: Stream→shard placement policies of the cluster router.
ROUTING_POLICIES: Registry = Registry("routing-policy")

#: Trace-driven workload generators of the cluster scenario suite.
CLUSTER_SCENARIOS: Registry = Registry("cluster-scenario")

#: Supervisor-driven fault injectors of the cluster resilience suite.
FAULT_INJECTORS: Registry = Registry("fault-injector")

#: Telemetry event sinks of the observability layer (ring buffer, JSONL, …).
TELEMETRY_SINKS: Registry = Registry("telemetry-sink")


def load_components() -> None:
    """Import every built-in component module so its registrations run.

    Idempotent and cheap after the first call (module imports are cached).
    Deferred imports keep this module cycle-free.
    """
    import repro.acceleration.combined  # noqa: F401  (registers accelerators)
    import repro.acceleration.dff  # noqa: F401
    import repro.acceleration.seqnms  # noqa: F401
    import repro.cluster.faults  # noqa: F401  (registers fault injectors)
    import repro.cluster.router  # noqa: F401  (registers routing policies)
    import repro.cluster.scenarios  # noqa: F401  (registers cluster scenarios)
    import repro.data.mini_ytbb  # noqa: F401  (registers datasets)
    import repro.data.synthetic_vid  # noqa: F401
    import repro.observability.sinks  # noqa: F401  (registers telemetry sinks)
    import repro.presets  # noqa: F401  (registers experiment presets)
    import repro.serving.loadgen  # noqa: F401  (registers arrival patterns)
    import repro.serving.scheduler  # noqa: F401  (registers backpressure policies)
