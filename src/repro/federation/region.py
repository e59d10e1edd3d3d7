"""The middle tier of a three-level federation: region aggregators.

A :class:`RegionAggregator` is the root's principle applied one level
down: it RDMA-reads the exported snapshot region of every leaf in its
group each region period, collects the packed leaf snapshots into a
:class:`RegionSnapshot`, and writes the packed form into its *own*
exported memory region for the root's one-sided read. No leaf CPU is
involved in answering the region and no region CPU is involved in
answering the root.

The region only passes its leaves' packed shard snapshots through,
verbatim. Nested tuples of immutables deep-copy by identity, so the
region's publish and the root's read both cost O(1) Python work per
shard regardless of shard size — only the root unpacks member records.

Staleness still accumulates across all three hops: ``collected_at``
stays the back-end data timestamp end-to-end, and the root re-stamps
``received_at`` with its read instant when it unpacks the shard records
(see :mod:`repro.federation.snapshot`), so a member's apparent age
covers leaf poll lag + snapshot age on the region + snapshot age on
the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.federation.leaf import LeafMonitor
from repro.transport.verbs import AccessFlags, ProtectionDomain, WqeBatch, connect_monitor_qp

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.hw.node import Node
    from repro.kernel.task import Task


@dataclass
class RegionSnapshot:
    """One region's view at one region epoch: its leaves' snapshots."""

    region: int
    #: the region's monotonic aggregation-round counter at publish time
    epoch: int
    #: region clock when the snapshot was composed
    published_at: int
    #: the freshest *packed* ShardSnapshot per leaf, in shard order
    shards: Tuple[tuple, ...] = ()

    def pack(self) -> tuple:
        """Nested tuples of immutables — the exported-MR wire format.

        The contained shard snapshots are already packed (they arrived
        that way from the leaves), so this is O(num_leaves) regardless
        of member count.
        """
        return (
            self.region,
            self.epoch,
            self.published_at,
            tuple(self.shards),
        )

    @staticmethod
    def unpack(packed: tuple) -> "RegionSnapshot":
        region, epoch, published_at, shards = packed
        return RegionSnapshot(region=region, epoch=epoch,
                              published_at=published_at, shards=tuple(shards))


class RegionAggregator:
    """One region's leaf-snapshot reader + snapshot publisher."""

    def __init__(
        self,
        sim: "ClusterSim",
        region: int,
        leaves: List[LeafMonitor],
        node: "Node",
    ) -> None:
        if not leaves:
            raise ValueError("region aggregator needs at least one leaf")
        fed = sim.cfg.federation
        self.sim = sim
        self.region = region
        self.leaves = leaves
        self.node = node
        interval = fed.region_interval or leaves[0].interval
        if interval <= 0:
            raise ValueError("region interval must be positive")
        self.interval = interval
        self._qps = [connect_monitor_qp(node, leaf.node)[0] for leaf in leaves]
        #: freshest packed shard snapshot per leaf (keyed by shard index)
        self.shard_packed: Dict[int, tuple] = {}
        self.epoch = 0
        self.published = 0
        #: per-round wall time (fan-in reads + merge + publish), ns
        self.rounds: List[int] = []
        self.read_failures = 0
        self._stopped = False
        self._task: Optional["Task"] = None
        # The exported region MR, sized for every member a full set of
        # leaf snapshots can carry.
        capacity = sum(
            len(leaf.topology.static_assignment[leaf.shard]) for leaf in leaves
        )
        nbytes = fed.snapshot_base_bytes + fed.snapshot_bytes_per_node * max(
            1, capacity)
        self.mr_region = node.memory.alloc(
            f"fed.region:{region}", nbytes,
            value=RegionSnapshot(region, 0, 0).pack(),
        )
        self.mr = ProtectionDomain.for_node(node).register(
            self.mr_region, AccessFlags.REMOTE_READ)

    # ------------------------------------------------------------------
    def start(self) -> "Task":
        if self._task is not None:
            raise RuntimeError("region aggregator already started")
        self._task = self.node.spawn(f"fed-region:{self.region}", self._body)
        return self._task

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _body(self, k):
        net = self.sim.cfg.net
        fed = self.sim.cfg.federation
        spans = self.sim.spans
        while not self._stopped:
            t0 = k.now
            span = None
            if spans is not None and spans.enabled:
                span = spans.start_trace(
                    f"fed.region:{self.region}", node=self.node.name,
                    component="federation",
                    attrs={"region": self.region, "leaves": len(self.leaves)})
            # Batched fan-in, exactly like the root over its leaves:
            # post every leaf-snapshot read, one doorbell, then drain.
            batch = WqeBatch(net=net)
            events = [
                batch.post_read(qp, leaf.mr.rkey, leaf.mr.nbytes, ctx=span)
                for qp, leaf in zip(self._qps, self.leaves)
            ]
            yield from batch.ring(k)
            for ev in events:
                wc = yield k.wait(ev)
                if wc.ok:
                    packed = wc.value
                    yield k.compute(fed.region_merge_cost)
                    # packed[0] is the shard index — keep the tuple
                    # verbatim so the root's read stays identity-copy.
                    self.shard_packed[packed[0]] = packed
                else:
                    self.read_failures += 1
            self.epoch += 1
            snap = RegionSnapshot(
                region=self.region,
                epoch=self.epoch,
                published_at=k.now,
                shards=tuple(
                    self.shard_packed[s] for s in sorted(self.shard_packed)),
            )
            yield k.compute(fed.region_publish_cost)
            # pack() passes through already-immutable leaf tuples, so
            # skip the O(snapshot-size) classification walk on publish.
            self.mr_region.write(snap.pack(), frozen=True)
            self.published += 1
            self.rounds.append(k.now - t0)
            if span is not None:
                spans.end(span, attrs={"epoch": self.epoch,
                                       "shards": len(self.shard_packed)})
            yield k.sleep(self.interval)
