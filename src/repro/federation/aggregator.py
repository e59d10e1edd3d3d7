"""The aggregation tier: root monitor + federation deployer.

The :class:`FederatedMonitor` runs on the front-end and RDMA-reads each
leaf's exported snapshot region every root period — the paper's
one-sided principle applied recursively: no leaf CPU is involved in
answering, so the root's round time is NIC + fabric only, over
``num_shards`` reads instead of N. Merged shard views land in
``latest`` (keyed by global back-end index), and each new member
report goes to ``observers`` once: the root offers the view the flat
:class:`~repro.monitoring.frontend.FrontendMonitor` does (``latest``,
``polls``, ``epoch``, ``observers``, ``round_observers``), so the
dispatcher, balancers and telemetry read either one.

:func:`deploy_federation` builds the whole fabric on an existing
cluster: leaf nodes attached to the fabric, one
:class:`~repro.federation.leaf.LeafMonitor` per shard, the root, and
the quarantine wiring (fault plane + heartbeat → topology).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.federation.leaf import LeafMonitor
from repro.federation.snapshot import ShardSnapshot
from repro.federation.topology import ShardTopology, auto_shard_count_3level
from repro.hw.node import Node
from repro.monitoring.loadinfo import LoadInfo
from repro.monitoring.registry import scheme_class
from repro.transport.verbs import WqeBatch, connect_monitor_qp

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.kernel.task import Task


class FederatedMonitor:
    """Root aggregator: one-sided reads of every leaf's snapshot MR.

    In a three-level fabric the root reads *region* snapshot MRs
    instead (each carrying its leaves' packed shard snapshots), so the
    fan-in scales with ``num_regions`` rather than ``num_shards``.
    """

    def __init__(
        self,
        sim: "ClusterSim",
        topology: ShardTopology,
        leaves: List[LeafMonitor],
        regions: Optional[list] = None,
    ) -> None:
        if not leaves:
            raise ValueError("federated monitor needs at least one leaf")
        fed = sim.cfg.federation
        self.sim = sim
        self.topology = topology
        self.leaves = leaves
        self.regions = regions
        self.frontend = sim.frontend
        interval = fed.root_interval or leaves[0].interval
        if interval <= 0:
            raise ValueError("root interval must be positive")
        self.interval = interval
        sources = regions if regions else leaves
        self._sources = sources
        self._qps = [connect_monitor_qp(sim.frontend, src.node)[0] for src in sources]
        #: the merged global view — FrontendMonitor-cache compatible
        self.latest: Dict[int, LoadInfo] = {}
        #: leaf epoch of the freshest snapshot merged per shard
        self.shard_epochs: Dict[int, int] = {}
        #: called in order with ``(backend, info)`` for each member report
        #: newer than the last one delivered for that back-end
        self.observers: List[Callable[[int, LoadInfo], None]] = []
        #: ``collected_at`` of the last report delivered per back-end
        self._delivered: Dict[int, int] = {}
        #: root merge-round counter (the global view's epoch stamp)
        self.epoch = 0
        self.polls = 0
        #: per-round wall time (fan-out reads + merges), ns
        self.rounds: List[int] = []
        self.read_failures = 0
        #: called in order with ``(epoch, latest)`` once per merge round
        #: (telemetry shard rollups, snapshot writers); ``latest`` is one
        #: copy of the merged view, shared by every subscriber
        self.round_observers: List[Callable[[int, Dict[int, LoadInfo]], None]] = []
        self._stopped = False
        self._task: Optional["Task"] = None

    # ------------------------------------------------------------------
    def start(self) -> "Task":
        if self._task is not None:
            raise RuntimeError("federated monitor already started")
        self._task = self.frontend.spawn("fed-root", self._body)
        return self._task

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _body(self, k):
        net = self.sim.cfg.net
        fed = self.sim.cfg.federation
        spans = self.sim.spans
        three_level = bool(self.regions)
        while not self._stopped:
            t0 = k.now
            span = None
            if spans is not None and spans.enabled:
                span = spans.start_trace(
                    "fed.aggregate", node=self.frontend.name,
                    component="federation", attrs={"shards": len(self.leaves)})
            # Batched fan-out, like a leaf's shard round: post every
            # snapshot read, ring the doorbell once, then drain.
            batch = WqeBatch(net=net)
            events = [
                batch.post_read(qp, src.mr.rkey, src.mr.nbytes, ctx=span)
                for qp, src in zip(self._qps, self._sources)
            ]
            yield from batch.ring(k)
            snaps: List[ShardSnapshot] = []
            for ev in events:
                wc = yield k.wait(ev)
                if not wc.ok:
                    self.read_failures += 1
                    continue
                if three_level:
                    from repro.federation.region import RegionSnapshot

                    rsnap = RegionSnapshot.unpack(wc.value)
                    # One merge charge per region view: the shard
                    # records inside pass through by identity, so the
                    # root's CPU work scales with its fan-in, not N.
                    yield k.compute(fed.root_merge_cost)
                    # Re-stamp delivery with the root's read instant so
                    # staleness accumulates across all hops.
                    snaps.extend(
                        ShardSnapshot.unpack(packed, received_at=k.now)
                        for packed in rsnap.shards
                    )
                else:
                    snaps.append(ShardSnapshot.unpack(wc.value, received_at=k.now))
            for snap in snaps:
                if not three_level:
                    yield k.compute(fed.root_merge_cost)
                self.shard_epochs[snap.shard] = snap.epoch
                self.latest.update(snap.nodes)
                if self.observers:
                    self._deliver(snap.nodes)
            # Quarantined members linger in old snapshots; keep the
            # serving view to what the topology considers routable.
            for b in list(self.latest):
                if b in self.topology.quarantined:
                    del self.latest[b]
            self.epoch += 1
            self.polls += 1
            self.rounds.append(k.now - t0)
            if span is not None:
                spans.end(span, attrs={"epoch": self.epoch,
                                       "merged": len(snaps)})
            if self.round_observers:
                latest = dict(self.latest)
                for fn in self.round_observers:
                    fn(self.epoch, latest)
            yield k.sleep(self.interval)

    def _deliver(self, nodes: Dict[int, LoadInfo]) -> None:
        """Observer fan-out for one snapshot's member reports.

        Only a report newer than the last one delivered for its back-end
        goes out, so each reaches ``observers`` once: a snapshot read
        again unchanged, relayed again by a region, or republishing a
        member's report after a failed probe delivers nothing.
        """
        delivered = self._delivered
        for g, info in nodes.items():
            if info.collected_at > delivered.get(g, -1):
                delivered[g] = info.collected_at
                for fn in self.observers:
                    fn(g, info)

    # ------------------------------------------------------------------
    def max_epoch_lag(self) -> int:
        """Largest gap between any two shard epochs in the merged view."""
        if not self.shard_epochs:
            return 0
        return max(self.shard_epochs.values()) - min(self.shard_epochs.values())


@dataclass
class Federation:
    """Handles for one deployed monitoring fabric (two or three tiers)."""

    sim: "ClusterSim"
    topology: ShardTopology
    leaves: List[LeafMonitor]
    root: FederatedMonitor
    leaf_nodes: List[Node] = field(default_factory=list)
    #: region aggregators (empty in the historical two-level fabric)
    regions: List = field(default_factory=list)
    region_nodes: List[Node] = field(default_factory=list)

    def stop(self) -> None:
        for leaf in self.leaves:
            leaf.stop()
        for region in self.regions:
            region.stop()
        self.root.stop()

    # quarantine wiring -------------------------------------------------
    def on_fault(self, record) -> None:
        """Fault-plane listener: crash/hang quarantines, recover releases."""
        if record.backend < 0 or record.kind not in ("crash", "hang", "recover"):
            return
        if record.kind in ("crash", "hang") and record.active:
            self.topology.quarantine(record.backend)
        else:
            self.topology.release(record.backend)

    def on_health(self, record) -> None:
        """Heartbeat listener: HUNG/DEAD quarantines, ALIVE releases."""
        from repro.monitoring.heartbeat import NodeHealth

        if record.state is NodeHealth.ALIVE:
            self.topology.release(record.backend)
        else:
            self.topology.quarantine(record.backend)

    def attach_faults(self, plane) -> "Federation":
        """Subscribe quarantine handling to a fault plane."""
        plane.observers.append(self.on_fault)
        return self

    def attach_heartbeat(self, heartbeat) -> "Federation":
        """Subscribe quarantine handling to a heartbeat monitor."""
        heartbeat.observers.append(self.on_health)
        return self


def deploy_federation(
    sim: "ClusterSim",
    scheme_name: str = "rdma-sync",
    heartbeat=None,
    *,
    interval: Optional[int] = None,
    **scheme_kwargs,
) -> Federation:
    """Build the two-level monitoring fabric on a built cluster.

    Creates one leaf node per shard (attached to the same fabric,
    booted, span-traced), deploys a :class:`LeafMonitor` per shard
    polling its members with ``scheme_name`` and the root
    :class:`FederatedMonitor`, starts everything, and — when a fault
    plane is already installed or a heartbeat monitor is passed — wires
    quarantine-driven rebalancing. Install the fault plane
    *before* calling this (or use :meth:`Federation.attach_faults`).

    ``interval`` and ``scheme_kwargs`` go to every leaf's scheme, as
    :meth:`repro.api.ClusterBuilder.scheme` gives them; a set
    ``cfg.federation.leaf_interval`` wins over ``interval``.
    """
    fed = sim.cfg.federation
    if fed.levels not in (2, 3):
        raise ValueError(f"federation.levels must be 2 or 3, got {fed.levels}")
    cls = scheme_class(scheme_name)
    # Rebalancing migrates members between shards, which only a scheme
    # deployable over the whole cluster without per-member back-end
    # state can follow; others pin the static assignment.
    can_rebalance = (fed.rebalance_on_quarantine and cls.one_sided
                     and cls.backend_threads == 0)
    shards = fed.num_shards
    if not shards and fed.levels == 3:
        # Three tiers balance near N^(1/3) fan-outs, not sqrt(N).
        shards = auto_shard_count_3level(len(sim.backends))
    topology = ShardTopology(
        len(sim.backends),
        shards,
        rebalance_on_quarantine=can_rebalance,
    )
    leaf_nodes: List[Node] = []
    base_index = sim.cfg.num_backends + 2  # after frontend/backends/clients
    for j in range(topology.num_shards):
        node = Node(sim.env, sim.cfg, f"leaf{j}", base_index + j)
        sim.fabric.attach(node.nic)
        node.span_tracer = sim.spans
        node.boot()
        leaf_nodes.append(node)
    leaves = [
        LeafMonitor(sim, topology, j, leaf_nodes[j], scheme_name,
                    interval=interval, **scheme_kwargs)
        for j in range(topology.num_shards)
    ]
    regions: List = []
    region_nodes: List[Node] = []
    if fed.levels == 3:
        from repro.federation.region import RegionAggregator
        from repro.federation.topology import auto_region_count

        nregions = fed.num_regions or auto_region_count(topology.num_shards)
        if nregions > topology.num_shards:
            raise ValueError("num_regions must not exceed num_shards")
        groups = ShardTopology._split(list(range(topology.num_shards)), nregions)
        rbase = base_index + topology.num_shards
        for r, leaf_idx in enumerate(groups):
            node = Node(sim.env, sim.cfg, f"region{r}", rbase + r)
            sim.fabric.attach(node.nic)
            node.span_tracer = sim.spans
            node.boot()
            region_nodes.append(node)
            regions.append(RegionAggregator(
                sim, r, [leaves[j] for j in leaf_idx], node))
    root = FederatedMonitor(sim, topology, leaves,
                            regions=regions if regions else None)
    for leaf in leaves:
        leaf.start()
    for region in regions:
        region.start()
    root.start()
    federation = Federation(sim=sim, topology=topology, leaves=leaves,
                            root=root, leaf_nodes=leaf_nodes,
                            regions=regions, region_nodes=region_nodes)
    faults = getattr(sim, "faults", None)
    if faults is not None:
        federation.attach_faults(faults)
    if heartbeat is not None:
        federation.attach_heartbeat(heartbeat)
    return federation
