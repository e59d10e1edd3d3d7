"""The metric registry: every plane's counters behind one stable surface.

:class:`MetricsRegistry` holds a list of *collectors* — zero-argument
callables returning :class:`MetricFamily` lists — and concatenates
their output on each :meth:`collect`. Collection is pull-based and
side-effect-free: nothing is cached, nothing is scheduled, and the
families are rebuilt from live simulator state on every scrape, so the
exposition always reflects the instant it was rendered and costs the
simulation zero simulated time.

Naming scheme (see docs/OBSERVABILITY.md for the full table): every
family is ``<namespace>_<subsystem>_<name>`` with OpenMetrics suffix
conventions (``_total`` for counters, quantile/``_sum``/``_count``
for summaries). Entity identity goes in labels — ``backend="3"``,
``shard="1"``, ``port="2"``, ``node="backend5"`` — never in the metric
name, so dashboards aggregate across entities with plain label
matchers. :meth:`MetricsRegistry.from_cluster` knows every plane the
:class:`~repro.api.RubisCluster` handle can carry and registers a
collector for each one present.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.openmetrics import (
    LABEL_NAME_RE,
    METRIC_NAME_RE,
    TYPE_SUFFIXES,
    TYPES,
    render_exposition,
)

#: quantiles every summary family exposes (matches the digest surface)
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: telemetry ring-key grammar: ``b<i>.`` / ``s<j>.`` / ``sw<p>.`` /
#: ``t<k>.`` prefixes (``sw`` must precede ``s`` in the alternation)
_KEY_RE = re.compile(r"(sw|s|b|t)(\d+)\.(.+)\Z")

#: ring-key prefix → (subsystem, entity label)
_KEY_GROUPS = {
    "b": ("backend", "backend"),
    "s": ("shard", "shard"),
    "sw": ("switch", "port"),
    "t": ("tenant", "tenant"),
}

_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Fold an arbitrary series name into the metric-name charset."""
    out = _SANITIZE_RE.sub("_", name)
    if not out or not METRIC_NAME_RE.match(out):
        out = "_" + out
    return out


class MetricFamily:
    """One named metric with typed samples.

    ``samples`` is a list of ``(suffix, labels, value)`` with labels a
    name-sorted tuple of (name, value) string pairs — exactly what the
    exposition renderer consumes.
    """

    __slots__ = ("name", "mtype", "help", "samples")

    def __init__(self, name: str, mtype: str, help: str) -> None:
        if not METRIC_NAME_RE.match(name):
            raise ValueError(f"bad metric family name {name!r}")
        if mtype not in TYPES:
            raise ValueError(f"unknown metric type {mtype!r} (one of {TYPES})")
        if mtype == "counter" and name.endswith("_total"):
            raise ValueError(
                f"counter family {name!r} must not carry the _total suffix "
                "(it is added per sample)")
        self.name = name
        self.mtype = mtype
        self.help = help
        self.samples: List[Tuple[str, Tuple[Tuple[str, str], ...], object]] = []

    @staticmethod
    def _labels(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
        out = []
        for name in sorted(labels):
            if not LABEL_NAME_RE.match(name):
                raise ValueError(f"bad label name {name!r}")
            out.append((name, str(labels[name])))
        return tuple(out)

    def add(self, value, suffix: Optional[str] = None, **labels) -> "MetricFamily":
        """Append one sample; the type's canonical suffix by default."""
        if suffix is None:
            suffix = {"counter": "_total", "info": "_info"}.get(self.mtype, "")
        if suffix not in TYPE_SUFFIXES[self.mtype]:
            raise ValueError(
                f"suffix {suffix!r} is illegal for {self.mtype} {self.name}")
        self.samples.append((suffix, self._labels(labels), value))
        return self

    def add_summary(self, digest, quantiles: Sequence[float] = DEFAULT_QUANTILES,
                    **labels) -> "MetricFamily":
        """Append one summary sample set from a StreamingDigest-like."""
        if self.mtype != "summary":
            raise ValueError(f"add_summary on {self.mtype} family {self.name}")
        base = self._labels(labels)
        for q in quantiles:
            self.samples.append(
                ("", base + (("quantile", str(q)),), digest.quantile(q)))
        self.samples.append(("_sum", base, digest.mean * digest.count))
        self.samples.append(("_count", base, digest.count))
        return self


class MetricsRegistry:
    """Pull-based collection of metric families from live collectors."""

    def __init__(self, namespace: str = "repro",
                 quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not METRIC_NAME_RE.match(namespace):
            raise ValueError(f"bad metric namespace {namespace!r}")
        if not quantiles or not all(0.0 <= q <= 1.0 for q in quantiles):
            raise ValueError("quantiles must be a non-empty sequence in [0, 1]")
        self.namespace = namespace
        self.quantiles = tuple(quantiles)
        self._collectors: List[Callable[[], Iterable[MetricFamily]]] = []

    # ------------------------------------------------------------------
    def family(self, name: str, mtype: str, help: str) -> MetricFamily:
        """A fresh namespaced family (``<namespace>_<name>``)."""
        return MetricFamily(f"{self.namespace}_{name}", mtype, help)

    def register(self, collector: Callable[[], Iterable[MetricFamily]]
                 ) -> "MetricsRegistry":
        """Add a collector: a callable returning metric families."""
        self._collectors.append(collector)
        return self

    def collect(self) -> List[MetricFamily]:
        """Run every collector; duplicate family names are an error."""
        families: List[MetricFamily] = []
        for collector in self._collectors:
            families.extend(collector())
        seen = set()
        for family in families:
            if family.name in seen:
                raise ValueError(
                    f"metric family {family.name!r} emitted by two collectors")
            seen.add(family.name)
        return families

    def render(self) -> str:
        """The OpenMetrics text exposition of the current state."""
        return render_exposition(self.collect())

    # ------------------------------------------------------------------
    @classmethod
    def from_cluster(cls, cluster, namespace: str = "repro",
                     quantiles: Sequence[float] = DEFAULT_QUANTILES,
                     ) -> "MetricsRegistry":
        """Register a collector for every plane the cluster carries.

        ``cluster`` is a :class:`~repro.api.RubisCluster`
        (or anything duck-typed like one). Planes that are absent
        (``None``) are skipped, so the exposition names only what the
        deployment actually enabled.
        """
        reg = cls(namespace=namespace, quantiles=quantiles)
        reg.register(lambda: collect_sim(reg, cluster))
        reg.register(lambda: collect_monitor(reg, cluster))
        if cluster.dispatcher is not None:
            reg.register(lambda: collect_dispatcher(reg, cluster.dispatcher))
        if cluster.telemetry is not None:
            reg.register(lambda: collect_telemetry(reg, cluster.telemetry))
        spans = getattr(cluster.sim, "spans", None)
        if spans is not None and spans.enabled:
            reg.register(lambda: collect_spans(reg, spans))
        if cluster.federation is not None:
            reg.register(lambda: collect_federation(reg, cluster.federation))
        congestion = getattr(cluster.sim, "congestion", None)
        if congestion is not None:
            reg.register(lambda: collect_congestion(reg, cluster.sim))
        tenancy = getattr(cluster.sim, "tenancy", None)
        if tenancy is not None:
            reg.register(lambda: collect_tenancy(reg, cluster.sim))
        if cluster.faults is not None:
            reg.register(lambda: collect_faults(reg, cluster.faults))
        if cluster.heartbeat is not None:
            reg.register(lambda: collect_heartbeat(reg, cluster.heartbeat))
        scaler = getattr(cluster, "scaler", None)
        if scaler is not None:
            reg.register(lambda: collect_scaler(reg, scaler))
        return reg


# ----------------------------------------------------------------------
# collectors — one per plane, each a pure read of live state
# ----------------------------------------------------------------------
def _probing_schemes(cluster) -> list:
    """The schemes that probe: the flat cluster's, or every leaf's."""
    if cluster.federation is None:
        return [cluster.scheme]
    return [leaf.scheme for leaf in cluster.federation.leaves]


def collect_sim(reg: MetricsRegistry, cluster) -> List[MetricFamily]:
    """Build info, simulated clock and event-core throughput counters."""
    from repro._version import __version__

    env = cluster.sim.env
    info = reg.family("build", "info", "Deployment identity of this exposition.")
    info.add(1, version=__version__, scheme=_probing_schemes(cluster)[0].name,
             backends=len(cluster.sim.backends))
    clock = reg.family("sim_time_ns", "gauge",
                       "Simulated clock at scrape time, nanoseconds.")
    clock.add(env.now)
    events = reg.family("sim_events", "counter",
                        "Events processed by the discrete-event core.")
    events.add(env.processed_events)
    cancelled = reg.family("sim_events_cancelled", "counter",
                           "Scheduled events cancelled before dispatch.")
    cancelled.add(env.cancelled_events)
    return [info, clock, events, cancelled]


def collect_monitor(reg: MetricsRegistry, cluster) -> List[MetricFamily]:
    """Rounds of the routed view plus the probing schemes' retry counters."""
    monitor = cluster.monitor
    view = ("flat front-end poller" if cluster.federation is None
            else "federated root")
    polls = reg.family("monitor_polls", "counter",
                       "Completed front-end monitoring rounds.")
    polls.add(monitor.polls)
    epoch = reg.family("monitor_epoch", "gauge",
                       f"Current monitoring epoch of the {view}.")
    epoch.add(monitor.epoch)
    probes = reg.family(
        "probe_events", "counter",
        "Probe fault-recovery outcomes by kind (timeouts, retries, naks, "
        "failures, stale replies dropped).")
    stats = [scheme.fault_stats() for scheme in _probing_schemes(cluster)]
    for kind in sorted(stats[0]):
        probes.add(sum(s[kind] for s in stats), kind=kind)
    return [polls, epoch, probes]


def collect_dispatcher(reg: MetricsRegistry, dispatcher) -> List[MetricFamily]:
    """Request outcomes and client-observed response-time quantiles."""
    from repro.telemetry.digest import exact_quantiles

    stats = dispatcher.stats
    outcomes = reg.family("requests", "counter",
                          "Requests by final outcome.")
    outcomes.add(stats.count(), outcome="completed")
    outcomes.add(stats.rejected_count, outcome="rejected")
    outcomes.add(stats.timeout_count, outcome="timed_out")
    forwarded = reg.family("requests_forwarded", "counter",
                           "Requests forwarded to a back-end.")
    forwarded.add(dispatcher.forwarded)
    rerouted = reg.family(
        "requests_rerouted", "counter",
        "Requests steered away from their first-choice back-end.")
    rerouted.add(dispatcher.rerouted_by_alert, reason="alert")
    rerouted.add(dispatcher.rerouted_by_health, reason="health")
    per_backend = reg.family("backend_requests", "counter",
                             "Completed requests per serving back-end.")
    for backend, count in sorted(stats.per_backend_counts().items()):
        per_backend.add(count, backend=backend)
    families = [outcomes, forwarded, rerouted, per_backend]

    times = stats.response_times()
    if times:
        rt = reg.family("response_time_ns", "summary",
                        "Client-observed response time, nanoseconds.")
        qs = exact_quantiles(times, reg.quantiles)

        class _Exact:  # duck-typed digest over the exact sample list
            count = len(times)
            mean = sum(times) / len(times)

            @staticmethod
            def quantile(q):
                return qs[list(reg.quantiles).index(q)]

        rt.add_summary(_Exact, reg.quantiles)
        families.append(rt)
    return families


#: help strings for the well-known telemetry series
_SERIES_HELP = {
    "cpu_util": "CPU utilisation fraction",
    "runq_load": "run-queue load (length averaged over the interval)",
    "nr_running": "instantaneous runnable task count",
    "irq_pressure": "pending-interrupt pressure (e-RDMA-Sync extension)",
    "mem_util": "memory utilisation fraction",
    "net_rate_mbps": "network receive rate, Mb/s",
    "staleness": "age of the load view when delivered, nanoseconds",
    "members": "routable members in the shard",
    "depth": "egress queue depth at enqueue, bytes",
    "ecn_rate": "cumulative ECN mark rate at the egress port",
    "pause_ns": "PFC pause issued by the egress port, nanoseconds",
    "rate": "DCQCN rate factor after a CNP cut",
    "posted_mbps": "tenant attempted post rate over the window, MB/s",
    "qp_creates": "tenant QP creation attempts in the window",
    "icm_misses": "tenant ICM context-cache misses in the window",
    "denied": "tenant verbs denied while quarantined, per window",
    "offending": "1 while the window crossed an offend_* threshold",
}


def collect_telemetry(reg: MetricsRegistry, pipeline) -> List[MetricFamily]:
    """Digest summaries, ring retention counters and alert totals.

    Ring keys ``b<i>.<metric>`` / ``s<j>.<metric>`` / ``sw<p>.<metric>``
    map to ``<ns>_backend_<metric>{backend="i"}`` /
    ``<ns>_shard_<metric>{shard="j"}`` / ``<ns>_switch_<metric>{port="p"}``
    summaries; keys outside the grammar fall back to
    ``<ns>_series_<sanitized>{series="<key>"}``.
    """
    families: Dict[str, MetricFamily] = {}
    digests = pipeline.digests()
    for key in sorted(digests):
        digest = digests[key]
        match = _KEY_RE.match(key)
        if match:
            prefix, index, metric = match.groups()
            subsystem, label = _KEY_GROUPS[prefix]
            name = f"{subsystem}_{sanitize_metric_name(metric)}"
            labels = {label: index}
        else:
            name = f"series_{sanitize_metric_name(key)}"
            labels = {"series": key}
        family = families.get(name)
        if family is None:
            metric = key.partition(".")[2] if "." in key else key
            detail = _SERIES_HELP.get(metric, f"telemetry series {metric!r}")
            family = families[name] = reg.family(
                name, "summary", f"Streaming digest: {detail}.")
        family.add_summary(digest, reg.quantiles, **labels)

    retained = reg.family("telemetry_retained", "gauge",
                          "Raw-tier samples currently retained per series.")
    dropped = reg.family("telemetry_dropped", "counter",
                         "Raw-tier samples aged out of the ring per series.")
    for key in pipeline.store.names():
        ring = pipeline.store.ring(key)
        retained.add(len(ring.raw), series=key)
        dropped.add(ring.raw.dropped, series=key)
    observations = reg.family("telemetry_observations", "counter",
                              "Load reports ingested by the pipeline.")
    observations.add(pipeline.observations)

    engine = pipeline.engine
    raised: Dict[Tuple[str, str], int] = {}
    cleared: Dict[str, int] = {}
    for alert in engine.log:
        if alert.cleared:
            cleared[alert.rule] = cleared.get(alert.rule, 0) + 1
        else:
            k = (alert.rule, alert.severity.name)
            raised[k] = raised.get(k, 0) + 1
    alerts = reg.family("alerts", "counter", "Alerts raised, by rule and severity.")
    for (rule, severity) in sorted(raised):
        alerts.add(raised[(rule, severity)], rule=rule, severity=severity)
    alerts_cleared = reg.family("alerts_cleared", "counter",
                                "Alerts cleared, by rule.")
    for rule in sorted(cleared):
        alerts_cleared.add(cleared[rule], rule=rule)
    active: Dict[str, int] = {}
    for alert in engine.active_alerts():
        active[alert.rule] = active.get(alert.rule, 0) + 1
    alerts_active = reg.family("alerts_active", "gauge",
                               "Currently-active alerts, by rule.")
    for rule in sorted(active):
        alerts_active.add(active[rule], rule=rule)
    return (list(families.values())
            + [retained, dropped, observations,
               alerts, alerts_cleared, alerts_active])


def collect_spans(reg: MetricsRegistry, spans) -> List[MetricFamily]:
    """Span-tracer totals: the drop counters the ASCII dumps hid."""
    traces = reg.family("traces_started", "counter",
                        "Traces started (post head-sampling).")
    traces.add(spans.traces_started)
    unsampled = reg.family("traces_unsampled", "counter",
                           "Root spans skipped by head sampling.")
    unsampled.add(spans.unsampled)
    committed = reg.family("spans_committed", "counter",
                           "Finished spans retained in the bounded store.")
    committed.add(len(spans.spans))
    dropped = reg.family("spans_dropped", "counter",
                         "Finished spans dropped by the store bound.")
    dropped.add(spans.dropped)
    open_spans = reg.family("spans_open", "gauge",
                            "Spans currently open (started, not ended).")
    open_spans.add(spans.open_spans)
    return [traces, unsampled, committed, dropped, open_spans]


def collect_federation(reg: MetricsRegistry, federation) -> List[MetricFamily]:
    """Root/leaf epochs, shard membership and rebalance counters."""
    root = federation.root
    topology = federation.topology
    epoch = reg.family("federation_epoch", "gauge",
                       "Root merge-round counter (global view epoch).")
    epoch.add(root.epoch)
    lag = reg.family("federation_epoch_lag", "gauge",
                     "Largest shard-epoch gap inside the merged view.")
    lag.add(root.max_epoch_lag())
    failures = reg.family("federation_read_failures", "counter",
                          "Root-side leaf snapshot reads that failed.")
    failures.add(root.read_failures)
    generation = reg.family("federation_generation", "gauge",
                            "Topology generation (bumped by each rebalance).")
    generation.add(topology.generation)
    rebalances = reg.family("federation_rebalances", "counter",
                            "Quarantine-driven shard re-splits.")
    rebalances.add(topology.rebalances)
    # prefixed federation_ so they cannot collide with the telemetry
    # plane's s<j>.members rollup (repro_shard_members summary)
    members = reg.family("federation_shard_members", "gauge",
                         "Routable back-ends assigned to the shard.")
    leaf_epoch = reg.family("federation_shard_epoch", "gauge",
                            "Freshest merged leaf epoch per shard.")
    for shard in range(topology.num_shards):
        members.add(len(topology.members(shard)), shard=shard)
        leaf_epoch.add(root.shard_epochs.get(shard, 0), shard=shard)
    return [epoch, lag, failures, generation, rebalances, members, leaf_epoch]


def collect_congestion(reg: MetricsRegistry, sim) -> List[MetricFamily]:
    """Per-port switch congestion counters and per-NIC DCQCN state."""
    plane = sim.congestion
    port_families = [
        ("switch_enqueued", "counter", "Packets enqueued at the egress port",
         lambda p: p.enqueued),
        ("switch_bytes_enqueued", "counter",
         "Bytes enqueued at the egress port", lambda p: p.bytes_enqueued),
        ("switch_ecn_marks", "counter",
         "Packets ECN-marked at the egress port", lambda p: p.ecn_marks),
        ("switch_pauses", "counter",
         "PFC pause frames emitted by the egress port", lambda p: p.pauses),
        ("switch_pause_ns", "counter",
         "Cumulative PFC pause issued, nanoseconds", lambda p: p.pause_ns),
        ("switch_peak_depth_bytes", "gauge",
         "Deepest egress queue observed, bytes", lambda p: p.peak_depth),
    ]
    ports = sorted(plane.switch.ports().values(), key=lambda p: p.index)
    out = []
    for name, mtype, help, getter in port_families:
        family = reg.family(name, mtype, help + ".")
        for port in ports:
            family.add(getter(port), port=port.index)
        out.append(family)

    nic_counters = [
        ("nic_ecn_marked_rx", "ECN-marked packets received by the NIC"),
        ("nic_cnps_sent", "Congestion notification packets generated"),
        ("nic_cnps_received", "Congestion notification packets received"),
        ("nic_pause_ns", "Time the NIC spent PFC-paused, nanoseconds"),
    ]
    for name, help in nic_counters:
        family = reg.family(name, "counter", help + ".")
        attr = "cc_" + name[len("nic_"):]
        for node in sim.nodes:
            value = getattr(node.nic, attr, 0)
            if value:
                family.add(value, node=node.name)
        out.append(family)
    return out


def collect_tenancy(reg: MetricsRegistry, sim) -> List[MetricFamily]:
    """Per-tenant resource accounting and per-NIC context-cache state."""
    plane = sim.tenancy
    qps = reg.family("tenant_qps_active", "gauge",
                     "Queue pairs currently held by the tenant.")
    posted = reg.family("tenant_posted_bytes", "counter",
                        "Bytes posted by the tenant's one-sided verbs.")
    denied = reg.family("tenant_denied_ops", "counter",
                        "Verb posts denied while the tenant was quarantined.")
    qp_denied = reg.family("tenant_qp_denied", "counter",
                           "QP creations rejected by admission.")
    # "tenancy_" (not "tenant_") so the exact counter can never collide
    # with the telemetry rollup summary built from the t<k>.icm_misses
    # ring series — same rule as the federation_shard_* gauges.
    misses = reg.family("tenancy_icm_misses", "counter",
                        "ICM context-cache misses charged to the tenant.")
    evictions = reg.family(
        "tenant_icm_evictions_inflicted", "counter",
        "Other tenants' hot ICM entries this tenant evicted.")
    quarantined = reg.family("tenant_quarantined", "gauge",
                             "1 while the defense loop quarantines the tenant.")
    throttle = reg.family("tenant_police_bps", "gauge",
                          "Defense-imposed byte-rate cap (0 = unthrottled).")
    for tenant in plane.registry:
        labels = {"tenant": tenant.tid, "name": tenant.name}
        qps.add(tenant.qps_active, **labels)
        posted.add(tenant.posted_bytes, **labels)
        denied.add(tenant.denied_ops, **labels)
        qp_denied.add(tenant.qp_denied, **labels)
        misses.add(tenant.icm_misses, **labels)
        evictions.add(tenant.icm_evictions_inflicted, **labels)
        quarantined.add(1 if tenant.quarantined else 0, **labels)
        throttle.add(tenant.police_bps, **labels)
    actions = reg.family("tenancy_actions", "counter",
                         "Defense sanctions by kind (throttle/quarantine/release).")
    counts: Dict[str, int] = {}
    for action in plane.actions:
        counts[action["kind"]] = counts.get(action["kind"], 0) + 1
    for kind in sorted(counts):
        actions.add(counts[kind], kind=kind)
    nic_hits = reg.family("nic_icm_hits", "counter",
                          "ICM context-cache hits at the NIC.")
    nic_misses = reg.family("nic_icm_misses", "counter",
                            "ICM context-cache misses at the NIC.")
    nic_qps = reg.family("nic_qp_table_entries", "gauge",
                         "Occupied entries in the NIC's bounded QP table.")
    for name, state in sorted(plane.stats()["nics"].items()):
        nic_hits.add(state["icm_hits"], node=name)
        nic_misses.add(state["icm_misses"], node=name)
        nic_qps.add(state["qp_count"], node=name)
    return [qps, posted, denied, qp_denied, misses, evictions, quarantined,
            throttle, actions, nic_hits, nic_misses, nic_qps]


def collect_faults(reg: MetricsRegistry, plane) -> List[MetricFamily]:
    """Fault-plane action and injection counters."""
    actions = reg.family("fault_actions", "counter",
                         "Fault-schedule actions by phase (applied/revoked).")
    actions.add(plane.applied, phase="applied")
    actions.add(plane.revoked, phase="revoked")
    injected = reg.family("fault_injections", "counter",
                          "Individual injections by kind.")
    injected.add(plane.dropped_packets, kind="dropped_packet")
    injected.add(plane.naks_injected, kind="verb_nak")
    injected.add(plane.mrs_invalidated, kind="mr_invalidated")
    return [actions, injected]


def collect_heartbeat(reg: MetricsRegistry, heartbeat) -> List[MetricFamily]:
    """Heartbeat probe totals and per-backend quarantine flags."""
    probes = reg.family("heartbeat_probes", "counter",
                        "RDMA heartbeat probes issued.")
    probes.add(heartbeat.probes)
    quarantined = set(heartbeat.quarantined())
    flags = reg.family("backend_quarantined", "gauge",
                       "1 while the heartbeat monitor quarantines the back-end.")
    for backend in sorted(set(heartbeat.healthy_backends()) | quarantined):
        flags.add(1 if backend in quarantined else 0, backend=backend)
    return [probes, flags]


def collect_scaler(reg: MetricsRegistry, scaler) -> List[MetricFamily]:
    """Elastic-scaler pool state, decision counts and last pool load."""
    active = reg.family("scaler_active_backends", "gauge",
                        "Back-ends currently in the serving pool.")
    active.add(len(scaler.active))
    parked = reg.family("scaler_parked_backends", "gauge",
                        "Back-ends currently parked (scaled down).")
    parked.add(len(scaler.parked))
    evals = reg.family("scaler_evaluations", "counter",
                       "Scaling evaluations performed.")
    evals.add(scaler.evaluations)
    moves = reg.family("scaler_moves", "counter",
                       "Scale moves taken, by direction.")
    for direction in ("up", "down"):
        moves.add(sum(1 for e in scaler.events if e.direction == direction),
                  direction=direction)
    load = reg.family("scaler_mean_load", "gauge",
                      "Mean load score over the active pool, last evaluation.")
    if scaler.mean_load is not None:
        load.add(scaler.mean_load)
    return [active, parked, evals, moves, load]
