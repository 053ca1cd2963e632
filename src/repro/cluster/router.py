"""Stream→shard placement with per-shard admission control.

The :class:`Router` is the cluster's front door.  Streams (not frames) are
the placement unit: AdaScale's feedback loop is sequential per stream, so a
stream must live on exactly one shard for its whole life — the router pins
the assignment at ``open`` and every subsequent frame of the stream follows
it.  Placement policies are registered components
(:data:`repro.registries.ROUTING_POLICIES`):

* ``least-loaded`` — the candidate shard currently serving the fewest
  streams (ties broken by shard id); adapts to churn and drains naturally;
* ``hash`` — a salted stable hash of the stream id; placement is independent
  of arrival order and of the other streams, which makes it reproducible
  across replays and keeps no coordination state.

Admission control is per shard: a shard at ``max_streams_per_shard`` (or one
that is draining) is not a candidate; when no candidate remains the stream is
**rejected at the front door** — the overload answer that protects every
admitted stream's latency instead of degrading all of them.  Frames of
rejected or unknown streams are refused with a count, never an exception, so
an overloaded cluster stays observable.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.config import RouterConfig
from repro.registries import ROUTING_POLICIES

__all__ = ["Router"]


@ROUTING_POLICIES.register("least-loaded")
def least_loaded_policy(stream_id: int, candidates: Sequence, hash_seed: int = 0):
    """Pick the candidate shard serving the fewest streams (ties: shard id)."""
    return min(candidates, key=lambda shard: (shard.active_streams, shard.shard_id))


@ROUTING_POLICIES.register("hash")
def hash_policy(stream_id: int, candidates: Sequence, hash_seed: int = 0):
    """Salted stable hash of the stream id over the candidate list.

    Uses blake2b rather than ``hash()`` so placement is stable across
    processes and Python's per-process hash randomisation.
    """
    digest = hashlib.blake2b(
        f"{hash_seed}:{stream_id}".encode(), digest_size=8
    ).digest()
    index = int.from_bytes(digest, "big") % len(candidates)
    return sorted(candidates, key=lambda shard: shard.shard_id)[index]


class Router:
    """Pins streams to shards and refuses work the shards cannot absorb."""

    def __init__(self, config: RouterConfig) -> None:
        config.validate()
        self.config = config
        self._policy = ROUTING_POLICIES.get(config.policy)
        self._assignment: dict[int, object] = {}
        #: streams refused because every live shard was at its admission cap
        self.rejected_streams = 0
        #: frames refused because their stream was never admitted
        self.rejected_frames = 0

    # -- placement -----------------------------------------------------------
    def assign(self, stream_id: int, shards: Sequence) -> object | None:
        """Place a newly opened stream; returns its shard or None (rejected).

        Candidates are shards that accept new streams and are below the
        per-shard cap; the configured policy picks among them.  With zero
        candidates the stream is rejected and counted — the cluster's
        overload answer at the front door.
        """
        if stream_id in self._assignment:
            raise ValueError(f"stream {stream_id} is already assigned")
        candidates = [
            shard
            for shard in shards
            if shard.accepting and shard.active_streams < self.config.max_streams_per_shard
        ]
        if not candidates:
            self.rejected_streams += 1
            return None
        shard = self._policy(stream_id, candidates, hash_seed=self.config.hash_seed)
        self._assignment[stream_id] = shard
        return shard

    def reassign(
        self, stream_id: int, shards: Sequence, exclude: Sequence = ()
    ) -> object | None:
        """Re-home a *live* stream after a shard crash or drain.

        Drops the current pin, then places the stream again among shards that
        accept streams, are under the per-shard cap, and are in neither
        ``exclude`` nor the stream's previous home.  Returns the new shard, or
        None when no candidate exists — the stream is then **stranded** (its
        pin is gone; subsequent frames count as unrouted) and the caller
        counts it (``ReplicaSupervisor.stranded_streams``).  Migration is
        about streams, not frames: the caller owns the accounting of whatever
        was in flight on the old shard.
        """
        previous = self._assignment.pop(stream_id, None)
        excluded = {id(shard) for shard in exclude}
        if previous is not None:
            excluded.add(id(previous))
        candidates = [
            shard
            for shard in shards
            if shard.accepting
            and id(shard) not in excluded
            and shard.active_streams < self.config.max_streams_per_shard
        ]
        if not candidates:
            return None
        shard = self._policy(stream_id, candidates, hash_seed=self.config.hash_seed)
        self._assignment[stream_id] = shard
        return shard

    def lookup(self, stream_id: int) -> object | None:
        """The shard serving ``stream_id``; None counts a rejected frame."""
        shard = self._assignment.get(stream_id)
        if shard is None:
            self.rejected_frames += 1
        return shard

    def release(self, stream_id: int) -> object | None:
        """Forget a closed stream's assignment (returns its former shard)."""
        return self._assignment.pop(stream_id, None)

    # -- introspection -------------------------------------------------------
    def streams_on(self, shard) -> list[int]:
        """Stream ids currently assigned to ``shard``."""
        return sorted(
            stream_id
            for stream_id, owner in self._assignment.items()
            if owner is shard
        )
