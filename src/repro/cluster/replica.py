"""The process-spawn seam: one shard as plain pickled config.

:class:`ReplicaSpec` carries everything a worker process needs to stand up
a shard — the experiment config as a plain dict, the serving config, and the
directory of a saved bundle — in a frozen dataclass that pickles losslessly
(asserted by the cluster tests).  :meth:`ReplicaSpec.build` materialises the
shard's :class:`~repro.serving.InferenceServer` in the calling process;
:class:`~repro.cluster.procpool.ProcessReplica` ships the same spec across a
``multiprocessing`` spawn boundary and :func:`~repro.cluster.procpool
.replica_main` runs exactly that body in the child.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path

from repro.config import ExperimentConfig, ServingConfig, TelemetryConfig
from repro.core.pipeline import ExperimentBundle
from repro.serving.server import InferenceServer

__all__ = ["ReplicaSpec"]


@dataclass(frozen=True)
class ReplicaSpec:
    """A pickled-config recipe for standing up one replica anywhere.

    Carries only plain data (nested dicts and strings), so it crosses a
    process boundary by pickle — or a machine boundary by JSON — without
    dragging live objects along.  ``bundle_dir`` points at artefacts saved by
    ``repro train`` / :meth:`ExperimentBundle.save`; the spawned side loads
    them instead of retraining.
    """

    shard_id: int
    experiment: dict
    serving: dict
    bundle_dir: str
    #: telemetry config for the spawned side (plain dict; None = tracing off).
    #: When set, :func:`~repro.cluster.procpool.replica_main` activates a
    #: child-local tracer and ships its spans back over IPC — the parent owns
    #: the span log / ring, so the child's own ``jsonl_path`` is cleared.
    telemetry: dict | None = None

    @classmethod
    def for_bundle_dir(
        cls,
        shard_id: int,
        config: ExperimentConfig,
        serving: ServingConfig,
        bundle_dir: str | Path,
        telemetry: TelemetryConfig | None = None,
    ) -> "ReplicaSpec":
        """Build a spec from live config objects (serialised immediately)."""
        return cls(
            shard_id=int(shard_id),
            experiment=config.to_dict(),
            serving=serving.to_dict(),
            bundle_dir=str(bundle_dir),
            telemetry=(
                None
                if telemetry is None or not telemetry.enabled
                else telemetry.with_(jsonl_path="").to_dict()
            ),
        )

    def roundtrips_by_pickle(self) -> bool:
        """Whether the spec survives a pickle round-trip unchanged."""
        return pickle.loads(pickle.dumps(self)) == self

    def build(self, dataset_cls: type | None = None) -> InferenceServer:
        """Materialise the shard's (unstarted) server in the calling process.

        :func:`~repro.cluster.procpool.replica_main` runs exactly this body
        on the far side of a spawn boundary;
        :class:`~repro.cluster.procpool.ProcessReplica` is the parent-side
        IPC proxy in front of it.
        """
        config = ExperimentConfig.from_dict(self.experiment)
        serving = ServingConfig.from_dict(self.serving)
        if dataset_cls is None:
            from repro.api import _resolve_dataset_cls

            dataset_cls = _resolve_dataset_cls(config)
        bundle = ExperimentBundle.load(self.bundle_dir, config, dataset_cls)
        return InferenceServer(bundle, serving=serving, shard_id=self.shard_id)
