"""Mergeable epoch snapshots: the leaf ⇄ root exchange format.

A leaf folds each completed shard round into a :class:`ShardSnapshot`:
the freshest :class:`~repro.monitoring.loadinfo.LoadInfo` per member,
stamped with the leaf's monotonic epoch and the topology generation it
was collected under, plus one mergeable
:class:`~repro.telemetry.digest.StreamingDigest` state per tracked
metric. The snapshot is *packed* into nested tuples of immutables
before being written to the leaf's exported memory region — crucial,
because buffer-region DMA reads deep-copy their value and
``copy.deepcopy`` returns immutables by identity, so a root read of a
packed snapshot costs O(1) Python work regardless of shard size.

**Staleness propagation**: ``collected_at`` is always the back-end data
timestamp. The packed record carries the leaf's delivery time; on
unpack the root re-stamps ``received_at`` with *its* read time, so a
node's apparent staleness accumulates across both hops (leaf poll lag +
snapshot age on the root) instead of being reset by the aggregation
tier — exactly what the paper's Fig 5-style accuracy analysis must see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.monitoring.loadinfo import LoadInfo
from repro.telemetry.digest import StreamingDigest

#: LoadInfo metrics digested at the leaves and merged at the root
SNAPSHOT_METRICS: Tuple[str, ...] = (
    "cpu_util",
    "runq_load",
    "nr_running",
    "staleness",
)


def pack_info(backend_index: int, info: LoadInfo) -> tuple:
    """One member's load record as an all-immutable tuple.

    The per-CPU irq tuples are already immutable, so they pass through
    (and back out of :func:`unpack_info`) by identity.
    """
    return (
        backend_index,
        info.backend,
        info.collected_at,
        info.received_at,
        info.nr_threads,
        info.nr_running,
        info.runq_load,
        info.cpu_util,
        info.busy_cpus,
        info.loadavg1,
        info.mem_util,
        info.net_rate_mbps,
        tuple(sorted(info.gauges.items())),
        info.irq_pending,
        info.irq_handled,
    )


def unpack_info(packed: tuple, received_at: Optional[int] = None) -> Tuple[int, LoadInfo]:
    """Rebuild ``(backend_index, LoadInfo)``.

    ``received_at`` re-stamps the delivery time (the root passes its
    read instant so staleness keeps growing through the merge); None
    keeps the leaf's delivery time.
    """
    (index, backend, collected_at, leaf_received_at, nr_threads, nr_running,
     runq_load, cpu_util, busy_cpus, loadavg1, mem_util, net_rate_mbps,
     gauges, irq_pending, irq_handled) = packed
    # Positional construction in LoadInfo field order — the root
    # re-materialises every member record each round, so skip the
    # keyword-call overhead on this hot path.
    info = LoadInfo(
        backend,
        collected_at,
        leaf_received_at if received_at is None else received_at,
        nr_threads,
        nr_running,
        runq_load,
        cpu_util,
        busy_cpus,
        loadavg1,
        mem_util,
        net_rate_mbps,
        dict(gauges),
        irq_pending,
        irq_handled,
    )
    return index, info


@dataclass
class ShardSnapshot:
    """One shard's merged view at one leaf epoch."""

    shard: int
    #: the leaf's monotonic poll-round counter at publish time
    epoch: int
    #: topology generation the round was collected under
    generation: int
    #: leaf clock when the snapshot was composed
    published_at: int
    #: freshest report per member, keyed by *global* back-end index
    nodes: Dict[int, LoadInfo] = field(default_factory=dict)
    #: metric → StreamingDigest state tuple (cumulative over the shard)
    digests: Dict[str, tuple] = field(default_factory=dict)

    def pack(self) -> tuple:
        """Nested tuples of immutables — the exported-MR wire format."""
        return (
            self.shard,
            self.epoch,
            self.generation,
            self.published_at,
            tuple(pack_info(i, info) for i, info in sorted(self.nodes.items())),
            tuple(sorted(self.digests.items())),
        )

    @staticmethod
    def unpack(packed: tuple, received_at: Optional[int] = None) -> "ShardSnapshot":
        shard, epoch, generation, published_at, nodes, digests = packed
        snap = ShardSnapshot(shard=shard, epoch=epoch, generation=generation,
                             published_at=published_at)
        for rec in nodes:
            index, info = unpack_info(rec, received_at=received_at)
            snap.nodes[index] = info
        snap.digests = dict(digests)
        return snap

    def wire_bytes(self, base_bytes: int, per_node_bytes: int) -> int:
        """Declared wire size under the configured sizing model."""
        return base_bytes + per_node_bytes * max(1, len(self.nodes))


def merge_digest_states(states: Sequence[tuple]) -> Optional[StreamingDigest]:
    """Merge shard digest states into one global digest (None if empty)."""
    merged: Optional[StreamingDigest] = None
    for state in states:
        sd = StreamingDigest.from_state(state)
        if merged is None:
            merged = sd
        else:
            merged.merge(sd)
    return merged
