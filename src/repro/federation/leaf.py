"""Leaf monitors: one per-shard poller on a dedicated leaf node.

A :class:`LeafMonitor` is the shard-scale analogue of the
:class:`~repro.monitoring.frontend.FrontendMonitor`: it runs any of the
registered monitoring schemes, restricted to its shard, on its own leaf
node. The scheme is built against a :class:`ShardView` — a
``ClusterSim``-shaped facade whose ``frontend`` is the leaf node and
whose ``backends`` are the back-ends the leaf may poll: its static
shard, or, on a rebalancing topology, the cluster's own list — so every
scheme works unmodified. RDMA schemes additionally get the batched fan-out
(`query_many`): the whole shard round is posted first and the doorbell
rings once.

After each round the leaf folds the results into a
:class:`~repro.federation.snapshot.ShardSnapshot` and writes its packed
form into a registered, remotely-readable memory region — the same
one-sided principle the paper applies to kernel counters, applied
recursively: the root learns the shard's state by DMA, never by asking
a leaf CPU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.federation.snapshot import ShardSnapshot
from repro.federation.topology import ShardTopology
from repro.monitoring.loadinfo import LoadInfo
from repro.monitoring.registry import create_scheme
from repro.transport.verbs import AccessFlags, ProtectionDomain

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.hw.node import Node
    from repro.kernel.task import Task


class ShardView:
    """A ``ClusterSim``-shaped facade scoping a scheme to one shard.

    Monitoring schemes only touch ``env / cfg / rng / spans / faults /
    frontend / backends``; presenting the leaf node as the
    front-end and the shard members as the cluster lets every registered
    scheme deploy against a shard without modification.
    """

    def __init__(self, sim: "ClusterSim", leaf_node: "Node", backends: List["Node"]) -> None:
        self.env = sim.env
        self.cfg = sim.cfg
        self.rng = sim.rng
        self.spans = sim.spans
        self.faults = getattr(sim, "faults", None)
        self.frontend = leaf_node
        #: shared, not copied (it may be the cluster's own list)
        self.backends = backends


class LeafMonitor:
    """One shard's poller + snapshot publisher."""

    def __init__(
        self,
        sim: "ClusterSim",
        topology: ShardTopology,
        shard: int,
        node: "Node",
        scheme_name: str,
        *,
        interval: Optional[int] = None,
        **scheme_kwargs,
    ) -> None:
        fed = sim.cfg.federation
        self.sim = sim
        self.topology = topology
        self.shard = shard
        self.node = node
        self.scheme_name = scheme_name
        # Members migrate between shards only on a rebalancing topology
        # (which deploy_federation builds only for schemes that can
        # follow), so only there does the scheme cover the whole
        # cluster, and a local index is the global one. Otherwise a
        # leaf never touches back-ends outside its static shard, and
        # its scheme indexes that shard.
        if topology.rebalance_on_quarantine:
            self._static: Optional[List[int]] = None
            self._local_of: Optional[Dict[int, int]] = None
            backends = sim.backends
        else:
            self._static = topology.static_assignment[shard]
            self._local_of = {g: li for li, g in enumerate(self._static)}
            backends = [sim.backends[g] for g in self._static]
        self.scheme = create_scheme(self.scheme_name, ShardView(sim, node, backends),
                                    interval=fed.leaf_interval or interval,
                                    **scheme_kwargs)
        self.interval = self.scheme.interval
        #: freshest report per member, keyed by *global* back-end index
        self.latest: Dict[int, LoadInfo] = {}
        self.epoch = 0
        self.published = 0
        #: per-round wall time (poll + merge + publish), ns
        self.rounds: List[int] = []
        self._stopped = False
        self._task: Optional["Task"] = None
        # The exported snapshot MR, sized for the largest assignment a
        # rebalance can hand this shard.
        capacity = -(-topology.num_backends // topology.num_shards)
        nbytes = fed.snapshot_base_bytes + fed.snapshot_bytes_per_node * capacity
        self.region = node.memory.alloc(
            f"fed.snapshot:{shard}", nbytes,
            value=ShardSnapshot(shard, 0, topology.generation, 0).pack(),
        )
        self.mr = ProtectionDomain.for_node(node).register(
            self.region, AccessFlags.REMOTE_READ)

    # ------------------------------------------------------------------
    def start(self) -> "Task":
        if self._task is not None:
            raise RuntimeError("leaf monitor already started")
        self._task = self.node.spawn(f"fed-leaf:{self.shard}", self._body)
        return self._task

    def stop(self) -> None:
        self._stopped = True
        self.scheme.stop()

    def members(self) -> List[int]:
        """Global indices this leaf polls right now."""
        members = self.topology.members(self.shard)
        if self._local_of is None:
            return members
        return [g for g in members if g in self._local_of]

    # ------------------------------------------------------------------
    def _body(self, k):
        fed = self.sim.cfg.federation
        spans = self.sim.spans
        while not self._stopped:
            t0 = k.now
            members = self.members()
            span = None
            if spans is not None and spans.enabled:
                span = spans.start_trace(
                    f"fed.leaf:{self.shard}", node=self.node.name,
                    component="federation",
                    attrs={"shard": self.shard, "members": len(members)})
            infos: Dict[int, LoadInfo] = {}
            if members:
                local_of = self._local_of
                infos = yield from self.scheme.query_many(
                    k, members if local_of is None else [local_of[g] for g in members])
            static = self._static
            for li, info in infos.items():
                g = li if static is None else static[li]
                self.latest[g] = info
            self.epoch += 1
            # Fold the round into the snapshot and publish it
            # into the exported region for the root's one-sided read.
            yield k.compute(fed.merge_cost)
            snap = ShardSnapshot(
                shard=self.shard,
                epoch=self.epoch,
                generation=self.topology.generation,
                published_at=k.now,
                nodes={g: self.latest[g] for g in members if g in self.latest},
            )
            yield k.compute(fed.publish_cost)
            # pack() guarantees nested tuples of immutables, so skip the
            # O(snapshot-size) classification walk on every publish.
            self.region.write(snap.pack(), frozen=True)
            self.published += 1
            self.rounds.append(k.now - t0)
            if span is not None:
                spans.end(span, attrs={"epoch": self.epoch})
            yield k.sleep(self.interval)
