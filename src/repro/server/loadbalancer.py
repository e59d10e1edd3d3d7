"""Load-balancing policies.

The paper evaluates its schemes through "a popular algorithm used by IBM
WebSphere": per-server load indices (CPU, memory, network, connections)
are combined with configured weights into a single score, and requests
go to the least-loaded server (§5.2.1). The extended variant adds the
pending-interrupt pressure that only e-RDMA-Sync reports.

The balancer consults the :class:`~repro.monitoring.frontend.FrontendMonitor`
cache — so its quality is exactly the quality (freshness, accuracy) of
the monitoring scheme feeding it, which is the experiment.

The cache changes about once per monitoring round, while the front end
makes dozens of decisions per round. So each report is scored once, and
a decision is a binary search over a cumulative-headroom table that is
rebuilt only when something it depends on changed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.monitoring.loadinfo import LoadInfo


@dataclass
class LoadWeights:
    """WebSphere-style index weights."""

    cpu: float = 0.35
    runq: float = 0.25
    connections: float = 0.25
    memory: float = 0.05
    #: network-rate index (MB/s normalised against NETWORK_FULL_MBPS)
    network: float = 0.10
    #: weight of interrupt pressure (only meaningful with e-RDMA-Sync)
    irq: float = 0.25
    #: dispatcher-local in-flight term. Default 0: any positive weight
    #: moves the dispatcher toward join-shortest-queue, which needs no
    #: monitoring at all and erases the paper's comparison (see the
    #: lb-weights ablation). Near-equal scores are instead broken by
    #: round-robin rotation, as the WebSphere advisor does.
    inflight: float = 0.0


#: fills every score slot when the scoring rule changes: no report is
#: this object, so the next sync rescores each back-end
_UNSCORED = object()


class LeastLoadedBalancer:
    """Weighted least-loaded selection over monitored load info.

    Requests are spread in proportion to each server's *capacity
    headroom* ``1 − score`` (IBM's dispatcher computes per-server weights
    from the load indices and distributes weighted-round-robin — "the
    least loaded servers are chosen", plural). Winner-take-all argmin
    would send every request of a polling window to one server; the
    proportional spread is what makes the *accuracy* of the monitored
    scores, not just their ordering, matter.

    Scores are cached one slot per back-end, against the
    :class:`LoadInfo` object each was computed from, so a report is
    scored once however many decisions read it. A decision whose view
    is unchanged costs one comparison of the view with the copy taken at
    the last sync, done in C, plus a ``bisect`` over the cumulative
    table. Every pick is the index the linear scan over the headroom
    weights returns for the same RNG draw, so same-seed runs are
    unchanged (``tests/properties/test_domain_properties.py`` keeps that
    scan as the reference).
    """

    #: headroom floor so no server is ever completely starved of probes
    MIN_WEIGHT = 0.02

    def __init__(
        self,
        num_backends: int,
        weights: Optional[LoadWeights] = None,
        use_irq_pressure: bool = False,
        rng=None,
    ) -> None:
        if num_backends < 1:
            raise ValueError("need at least one back-end")
        self.num_backends = num_backends
        self.weights = weights if weights is not None else LoadWeights()
        self.use_irq_pressure = use_irq_pressure
        import numpy as np

        self.rng = rng if rng is not None else np.random.Generator(np.random.PCG64(0x10AD))
        self._rr = 0
        #: per-backend in-flight counter maintained by the dispatcher as a
        #: fallback signal before the first monitoring report arrives
        self.assigned: List[int] = [0] * num_backends
        #: span tracer + node label, wired by ClusterBuilder.build(); the
        #: dispatcher hands us the request via set_request so the pick
        #: decision can be recorded under the request's trace
        self.tracer = None
        self.trace_node = ""
        self._trace_request = None
        #: score cache, one slot per back-end: the LoadInfo the score was
        #: computed from (None: no report, score 0) and the score
        self._infos: List[object] = [None] * num_backends
        self._scores: List[float] = [0.0] * num_backends
        #: ``use_irq_pressure`` and the weight fields the scores assume
        self._rule: tuple = ()
        #: copy of the view the slots were last synced with
        self._view: Optional[Dict[int, LoadInfo]] = None
        #: headroom per back-end with ``_excluded`` zeroed (None: rebuild)
        self._headroom: Optional[List[float]] = None
        self._excluded: Set[int] = set()
        #: flat table over the headroom: positive-weight back-ends,
        #: their prefix sums, total
        self._flat: tuple = ()
        #: headroom rebuilds so far (the two-level tables key on it)
        self._rebuilds = 0

    # ------------------------------------------------------------------
    def set_request(self, request) -> None:
        """Dispatcher hook: the request the next ``choose`` decides for."""
        self._trace_request = request

    def _trace_pick(self, choice: int) -> None:
        request, self._trace_request = self._trace_request, None
        tracer = self.tracer
        if (tracer is None or not tracer.enabled or request is None
                or request.trace is None):
            return
        # The decision is instantaneous in sim time: a point span.
        now = tracer.now
        tracer.record("lb.pick", request.trace, now, now,
                      node=self.trace_node, component="balancer",
                      attrs={"choice": choice})

    # ------------------------------------------------------------------
    #: network rate (MB/s) treated as a fully-loaded link for scoring
    NETWORK_FULL_MBPS = 300.0

    def score(self, info: LoadInfo) -> float:
        """The WebSphere average-load score (lower = less loaded).

        The four indices the paper names — CPU, memory, network and
        connection load — plus the run-queue EMA as the fine-grained CPU
        pressure signal; e-RDMA-Sync adds interrupt pressure.
        """
        w = self.weights
        score = (
            w.cpu * info.cpu_util
            + w.runq * min(1.0, info.runq_load / 16.0)
            + w.connections * min(1.0, info.gauges.get("connections", 0.0) / 32.0)
            + w.memory * info.mem_util
            + w.network * min(1.0, info.net_rate_mbps / self.NETWORK_FULL_MBPS)
        )
        if self.use_irq_pressure:
            score += w.irq * min(1.0, info.irq_pressure / 8.0)
        return score

    def server_weights(self, loads: Dict[int, LoadInfo]) -> List[float]:
        """Per-server headroom weights derived from the monitor cache."""
        return list(self._sync(loads, set()))

    def _exclusions(self, exclude: Optional[Sequence[int]]) -> Set[int]:
        excluded = set(exclude) if exclude else set()
        if len(excluded) >= self.num_backends:
            excluded = set()
        return excluded

    def _sync(self, loads: Dict[int, LoadInfo], excluded: Set[int]) -> List[float]:
        """Bring the score cache and the headroom weights up to date.

        When ``loads`` equals the copy taken at the last sync (one dict
        comparison, identity first) no slot is looked at. Otherwise a
        back-end is rescored when the object in its slot of ``loads`` is
        not the one its score came from. Every back-end is rescored when
        ``use_irq_pressure`` or a weight field changed. The headroom is
        rebuilt when a score or the exclusion set changed, and on every
        call while the in-flight weight is non-zero, since the
        dispatcher's in-flight counts move with every request.
        """
        w = self.weights
        rule = (self.use_irq_pressure, *vars(w).values())
        if rule != self._rule:
            self._rule = rule
            self._infos = [_UNSCORED] * self.num_backends
            self._view = None
            self._headroom = None
        if loads != self._view:
            self._view = dict(loads)
            infos, scores = self._infos, self._scores
            for i, info in enumerate(map(loads.get, range(self.num_backends))):
                if info is not infos[i]:
                    infos[i] = info
                    score = 0.0 if info is None else self.score(info)
                    if score != scores[i]:
                        scores[i] = score
                        self._headroom = None
        if self._headroom is None or excluded != self._excluded or w.inflight:
            headroom = [
                max(self.MIN_WEIGHT,
                    1.0 - (score + w.inflight * min(1.0, busy / 16.0)))
                for score, busy in zip(self._scores, self.assigned)
            ]
            for i in excluded:
                if 0 <= i < self.num_backends:
                    headroom[i] = 0.0
            self._headroom = headroom
            self._excluded = excluded
            self._flat = (*self._table(range(self.num_backends), headroom),
                          sum(headroom))
            self._rebuilds += 1
        return self._headroom

    @staticmethod
    def _table(ids: Iterable[int],
               weights: List[float]) -> Tuple[List[int], List[float]]:
        """The positive-weight ``ids`` and their running weight totals.

        ``accumulate`` adds in the linear scan's order, and adding a zero
        weight leaves a float sum unchanged, so each prefix equals the
        scan's running total at that id.
        """
        ids = [i for i in ids if weights[i] > 0.0]
        return ids, list(accumulate(weights[i] for i in ids))

    def _draw(self, ids: List[int], prefix: List[float],
              total: float) -> Optional[int]:
        """Scale one RNG draw by ``total``: the first id whose prefix
        reaches it, or None when fp rounding puts it past the last."""
        pos = bisect_left(prefix, self.rng.random() * total)
        return ids[pos] if pos < len(ids) else None

    def choose(self, loads: Dict[int, LoadInfo],
               exclude: Optional[Sequence[int]] = None) -> int:
        """Pick a back-end, weighted by monitored capacity headroom.

        With no (or uniformly stale) data every weight ties and the
        spread is uniform; with *wrong* data the proportions are wrong —
        the load the paper's fine-grained monitoring removes.

        ``exclude`` quarantines back-ends (health failover): their weight
        is zeroed so no request lands there. Excluding *everything* falls
        back to the full set — a wrong pick beats no pick. The default
        (no exclusion) draws from the RNG exactly as before, so healthy
        runs stay bit-identical.
        """
        excluded = self._exclusions(exclude)
        if not loads:
            self._rr = (self._rr + 1) % self.num_backends
            while self._rr in excluded:
                self._rr = (self._rr + 1) % self.num_backends
            self._trace_pick(self._rr)
            return self._rr
        self._sync(loads, excluded)
        choice = self._draw(*self._flat)
        if choice is None:  # pragma: no cover - fp guard
            # last non-excluded backend
            return max(i for i in range(self.num_backends) if i not in excluded)
        self._trace_pick(choice)
        return choice

    def note_assigned(self, backend: int) -> None:
        self.assigned[backend] += 1

    def note_completed(self, backend: int) -> None:
        if 0 <= backend < self.num_backends:
            self.assigned[backend] = max(0, self.assigned[backend] - 1)


class TwoLevelBalancer(LeastLoadedBalancer):
    """Shard-then-node selection over a federated monitoring view.

    Stage 1 picks a shard in proportion to its *aggregate* headroom
    (the sum of its members' headroom weights); stage 2 picks a node
    within the shard in proportion to individual headroom. The product
    of the two proportional draws preserves the flat balancer's
    marginal distribution over nodes, while the decision consults the
    current :class:`~repro.federation.topology.ShardTopology` — so
    quarantine-driven rebalances immediately reshape routing.
    """

    def __init__(
        self,
        topology,
        weights: Optional[LoadWeights] = None,
        use_irq_pressure: bool = False,
        rng=None,
    ) -> None:
        super().__init__(topology.num_backends, weights=weights,
                         use_irq_pressure=use_irq_pressure, rng=rng)
        self.topology = topology
        #: stage-1 pick counts per shard (diagnostics)
        self.shard_picks: List[int] = [0] * topology.num_shards
        #: per shard: positive-weight members, their prefix sums, subtotal
        self._members: List[tuple] = []
        #: shard table: shards with headroom, prefix sums, total
        self._shard_table: tuple = ()
        #: what the tables were built from: (headroom rebuild, topology
        #: generation) and the quarantine set, which can change without
        #: a new generation when ``rebalance_on_quarantine`` is off
        self._shards_at: tuple = ()
        self._quarantined: Set[int] = set()

    def _shard_tables(self, weights: List[float]) -> tuple:
        """The shard table, rebuilt with the member tables when the
        headroom or the topology's membership changed."""
        topo = self.topology
        if (self._shards_at == (self._rebuilds, topo.generation)
                and topo.quarantined == self._quarantined):
            return self._shard_table
        self._shards_at = (self._rebuilds, topo.generation)
        self._quarantined = set(topo.quarantined)
        self._members = []
        for j in range(topo.num_shards):
            members, prefix = self._table(topo.members(j), weights)
            self._members.append(
                (members, prefix, sum(weights[g] for g in members)))
        subtotals = [subtotal for _, _, subtotal in self._members]
        self._shard_table = (*self._table(range(topo.num_shards), subtotals),
                             sum(subtotals))
        return self._shard_table

    def choose(self, loads: Dict[int, LoadInfo],
               exclude: Optional[Sequence[int]] = None) -> int:
        if not loads:
            return super().choose(loads, exclude)
        weights = self._sync(loads, self._exclusions(exclude))
        shards, prefix, total = self._shard_tables(weights)
        if total <= 0.0:
            # every routable member excluded/empty: flat fallback
            return super().choose(loads, exclude)
        shard = self._draw(shards, prefix, total)
        if shard is None:  # pragma: no cover - fp guard
            shard = self.topology.num_shards - 1
        self.shard_picks[shard] += 1
        members, prefix, subtotal = self._members[shard]
        choice = self._draw(members, prefix, subtotal)
        if choice is None:  # pragma: no cover - fp guard
            choice = members[-1]
        self._trace_pick(choice)
        return choice


class RoundRobinBalancer:
    """Monitoring-free baseline: strict rotation."""

    def __init__(self, num_backends: int) -> None:
        if num_backends < 1:
            raise ValueError("need at least one back-end")
        self.num_backends = num_backends
        self._next = 0

    def score(self, info: LoadInfo) -> float:  # pragma: no cover - interface parity
        return 0.0

    def choose(self, loads: Dict[int, LoadInfo],
               exclude: Optional[Sequence[int]] = None) -> int:
        chosen = self._next
        if exclude:
            excluded = set(exclude)
            if len(excluded) < self.num_backends:
                while chosen in excluded:
                    chosen = (chosen + 1) % self.num_backends
        self._next = (chosen + 1) % self.num_backends
        return chosen

    def note_assigned(self, backend: int) -> None:
        pass

    def note_completed(self, backend: int) -> None:
        pass
