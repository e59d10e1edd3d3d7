"""The front-door API: a fluent builder for a fully-wired cluster.

:class:`ClusterBuilder` is the one way to assemble the application
stack — booted cluster, back-end web servers, a monitoring scheme with
its front-end poller, the load balancer (extended scoring iff the
scheme is e-RDMA-Sync), and the dispatcher — plus any of the optional
planes (admission control, telemetry, alert shedding, span tracing,
fault injection, heartbeat failover, hierarchical federation,
congestion-realistic fabric)::

    from repro.api import ClusterBuilder

    cluster = (
        ClusterBuilder(cfg)
        .scheme("rdma-sync", interval=20 * MS)
        .with_telemetry()
        .with_faults("at 2s crash backend3")
        .build()
    )
    cluster.run(until=10 * S)

Each ``with_*`` method returns the builder, so a deployment reads as a
single expression naming exactly the planes it enables; everything not
named stays off and the run is byte-identical to the minimal stack
(property-tested). A chain method that sets config knobs writes the
builder's own copy of that section, so the caller's
:class:`~repro.config.SimConfig` is never changed and can seed any
number of clusters. ``build()`` may be called once; it returns a
:class:`RubisCluster` handle.

Background and tenant load is started through the workload registry:
either chained (``.workload("background", node=0, threads=4)``) or,
after the build, with :func:`repro.workloads.create_workload`.
:func:`repro.federation.deploy_federation`, which ``build()`` calls for
the federated fabric, also builds a bare fabric on a cluster with no
application stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from difflib import get_close_matches
from typing import List, Optional, Sequence

from repro.config import SimConfig
from repro.faults import FaultPlane, FaultSchedule, parse_schedule
from repro.federation import Federation, deploy_federation
from repro.hw.cluster import ClusterSim, build_cluster
from repro.monitoring import FrontendMonitor, MonitoringScheme, create_scheme
from repro.monitoring.heartbeat import HeartbeatMonitor
from repro.server.admission import AdmissionController
from repro.server.dispatcher import Dispatcher
from repro.server.loadbalancer import LeastLoadedBalancer, TwoLevelBalancer
from repro.server.webserver import BackendServer
from repro.telemetry.pipeline import TelemetryPipeline

__all__ = ["ClusterBuilder", "RubisCluster"]


@dataclass
class RubisCluster:
    """Handles for a deployed application cluster."""

    sim: ClusterSim
    servers: List[BackendServer]
    scheme: MonitoringScheme
    monitor: FrontendMonitor
    balancer: LeastLoadedBalancer
    dispatcher: Dispatcher
    admission: Optional[AdmissionController] = None
    telemetry: Optional[TelemetryPipeline] = None
    faults: Optional[FaultPlane] = None
    heartbeat: Optional[HeartbeatMonitor] = None
    federation: Optional[Federation] = None
    #: :class:`~repro.server.reconfig.ElasticScaler` when autoscaling is on
    scaler: Optional[object] = None
    #: workloads queued via ``ClusterBuilder.workload``, in chain order
    workloads: List[object] = field(default_factory=list)
    #: :class:`~repro.obs.surface.Observability` when the surface is on
    obs: Optional[object] = None

    def run(self, until: int) -> None:
        self.sim.run(until)


def _audit_kwargs(method: str, extra: dict, valid: Sequence[str]) -> None:
    """Reject unknown chain-method keywords with a did-you-mean hint.

    Mirrors the config-schema audit: a misspelled knob on any builder
    chain method raises immediately instead of silently vanishing into
    ``**kwargs`` (or a bare TypeError with no suggestion).
    """
    if not extra:
        return
    name = next(iter(extra))
    matches = get_close_matches(name, valid, n=1, cutoff=0.6)
    hint = f" — did you mean {matches[0]!r}?" if matches else ""
    raise TypeError(
        f"ClusterBuilder.{method}() got unknown keyword argument "
        f"{name!r}{hint} (valid keywords: {', '.join(sorted(valid))})"
    )


class ClusterBuilder:
    """Fluent assembly of a monitored cluster (see module docstring)."""

    def __init__(self, cfg: Optional[SimConfig] = None) -> None:
        self._cfg = cfg if cfg is not None else SimConfig()
        #: config sections this builder has copied before writing them
        self._owned: set = set()
        self._scheme_name = "rdma-sync"
        self._interval: Optional[int] = None
        self._scheme_kwargs: dict = {}
        self._workers: Optional[int] = None
        self._admission = False
        self._admission_max_score = 0.85
        self._telemetry = False
        self._telemetry_rules = None
        self._alert_shedding = False
        self._fault_schedule: Optional[FaultSchedule] = None
        self._heartbeat = False
        self._heartbeat_interval = 50_000_000
        self._heartbeat_timeout = 10_000_000
        self._heartbeat_hung_after = 2
        self._workloads: list = []
        self._built = False

    def _section(self, name: str):
        """Config section ``name``, copied on its first write.

        The first copy also shallow-copies the :class:`SimConfig`, so
        the caller's config and its sections are never written.
        """
        if name not in self._owned:
            if not self._owned:
                self._cfg = replace(self._cfg)
            setattr(self._cfg, name, replace(getattr(self._cfg, name)))
            self._owned.add(name)
        return getattr(self._cfg, name)

    # -- knobs ----------------------------------------------------------
    def scheme(self, name: str, *, interval: Optional[int] = None,
               **kwargs) -> "ClusterBuilder":
        """Choose the monitoring scheme (default ``rdma-sync``).

        ``interval`` overrides ``cfg.monitor.interval`` for the scheme's
        probe loop; extra keywords are forwarded to the scheme
        constructor via :func:`~repro.monitoring.registry.create_scheme`
        (which rejects unknown ones by name).
        """
        self._scheme_name = name
        self._interval = interval
        self._scheme_kwargs = kwargs
        return self

    def workers(self, n: int) -> "ClusterBuilder":
        """Web-server worker processes per back-end (default from cfg)."""
        self._workers = n
        return self

    def with_admission(self, *, max_score: float = 0.85,
                       **extra) -> "ClusterBuilder":
        """Reject requests when every back-end scores above ``max_score``."""
        _audit_kwargs("with_admission", extra, ["max_score"])
        self._admission = True
        self._admission_max_score = max_score
        return self

    def with_telemetry(self, *, rules=None, **extra) -> "ClusterBuilder":
        """Attach the bounded telemetry pipeline to the front-end monitor."""
        _audit_kwargs("with_telemetry", extra, ["rules"])
        self._telemetry = True
        self._telemetry_rules = rules
        return self

    def with_alert_shedding(self) -> "ClusterBuilder":
        """Route around critically-alerted back-ends (implies telemetry)."""
        self._alert_shedding = True
        return self

    def with_tracing(self, *, sample: float = 1.0, **extra) -> "ClusterBuilder":
        """Enable the causal span plane at head-sampling rate ``sample``."""
        _audit_kwargs("with_tracing", extra, ["sample"])
        tracing = self._section("tracing")
        tracing.enabled = True
        tracing.sample_rate = sample
        return self

    def with_faults(self, schedule) -> "ClusterBuilder":
        """Install the deterministic fault plane.

        ``schedule`` is a :class:`~repro.faults.FaultSchedule` or
        schedule text for :func:`~repro.faults.parse_schedule`.
        """
        if isinstance(schedule, str):
            schedule = parse_schedule(schedule)
        elif not isinstance(schedule, FaultSchedule):
            raise TypeError("with_faults() takes a FaultSchedule or schedule text")
        self._fault_schedule = schedule
        return self

    def with_heartbeat(self, *, interval: int = 50_000_000,
                       timeout: int = 10_000_000,
                       hung_after: int = 2, **extra) -> "ClusterBuilder":
        """Run the RDMA heartbeat monitor and health-aware failover."""
        _audit_kwargs("with_heartbeat", extra,
                      ["interval", "timeout", "hung_after"])
        self._heartbeat = True
        self._heartbeat_interval = interval
        self._heartbeat_timeout = timeout
        self._heartbeat_hung_after = hung_after
        return self

    def congestion(self, **knobs) -> "ClusterBuilder":
        """Enable the congestion-realistic fabric (ECN/DCQCN/PFC).

        Keywords are ``cfg.congestion`` knobs (``dcqcn=False``,
        ``ecn_kmin=...``, ``pfc_xoff=...``, ...); a mistyped name raises
        immediately with a did-you-mean hint, courtesy of the audited
        config schema. ``enabled`` is implied — calling this method at
        all switches the plane on.
        """
        cc = self._section("congestion")
        cc.enabled = True
        for name, value in knobs.items():
            setattr(cc, name, value)
        return self

    def tenancy(self, **knobs) -> "ClusterBuilder":
        """Enable the multi-tenant NIC resource model (see repro.tenancy).

        Keywords are ``cfg.tenancy`` knobs (``qp_table_size=...``,
        ``icm_entries=...``, ``defense=True``, ``offend_mbps=...``, ...);
        a mistyped name raises immediately with a did-you-mean hint,
        courtesy of the audited config schema. ``enabled`` is implied —
        calling this method at all installs the plane, giving every NIC
        a bounded QP table and a shared ICM context cache, and policing
        tenant verbs at post time. The built cluster's
        ``sim.tenancy`` handle carries the registry and defense loop.
        """
        tn = self._section("tenancy")
        tn.enabled = True
        for name, value in knobs.items():
            setattr(tn, name, value)
        return self

    def observability(self, **knobs) -> "ClusterBuilder":
        """Enable the OpenMetrics observability surface (see repro.obs).

        Keywords are ``cfg.obs`` knobs (``namespace=...``,
        ``snapshot_dir=...``, ``http=True``, ``http_port=...``, ...); a
        mistyped name raises immediately with a did-you-mean hint,
        courtesy of the audited config schema. ``enabled`` is implied —
        calling this method at all switches the surface on, and the
        build also attaches the telemetry pipeline (the registry's
        richest source) exactly as :meth:`with_telemetry` would.

        The built cluster's ``obs`` handle carries the registry, the
        ``/metrics`` server (when ``http=True``) and
        :meth:`~repro.obs.surface.Observability.job_report`.
        """
        obs = self._section("obs")
        obs.enabled = True
        for name, value in knobs.items():
            setattr(obs, name, value)
        return self

    def with_elastic_scaler(self, **knobs) -> "ClusterBuilder":
        """Enable monitoring-driven elastic autoscaling (see server.reconfig).

        Keywords are ``cfg.scaler`` knobs (``high_water=...``,
        ``low_water=...``, ``initial_active=...``, ``up_after=...``,
        ``cooldown=...``, ...); a mistyped name raises immediately with
        a did-you-mean hint, courtesy of the audited config schema.
        ``enabled`` is implied — calling this method at all installs an
        :class:`~repro.server.reconfig.ElasticScaler` driven by
        whichever monitoring view the dispatcher consults (the
        federated root when federation is on, the flat front-end poller
        otherwise). The built cluster's ``scaler`` handle carries the
        scale-event log and load samples.
        """
        sc = self._section("scaler")
        sc.enabled = True
        for name, value in knobs.items():
            setattr(sc, name, value)
        return self

    def workload(self, name: str, **kwargs) -> "ClusterBuilder":
        """Queue a registered workload to start as part of ``build()``.

        ``name`` is a :mod:`repro.workloads` registry entry
        (``"rubis"``, ``"openloop"``, ``"replay"``, ``"background"``,
        ``"incast"``, ...); keywords are that workload's parameters —
        both are validated *here*, at chain time, with did-you-mean
        hints, so a typo fails where it was written rather than deep in
        ``build()``. Node-valued parameters accept back-end indices.
        The instantiated workloads land in the built cluster's
        ``workloads`` list, in chain order.
        """
        from repro.workloads import _audit_workload_kwargs, get_workload_spec

        spec = get_workload_spec(name)
        _audit_workload_kwargs(spec, kwargs)
        self._workloads.append((spec, kwargs))
        return self

    def with_federation(self, *, num_shards: int = 0,
                        leaf_interval: int = 0,
                        root_interval: int = 0,
                        levels: int = 2,
                        num_regions: int = 0,
                        region_interval: int = 0,
                        **extra) -> "ClusterBuilder":
        """Deploy the sharded monitoring fabric (two or three tiers).

        Equivalent to setting ``cfg.federation.enabled`` (plus the given
        knobs) before building: leaves poll their shard with the chosen
        scheme, the root merges leaf snapshots, the dispatcher routes
        through the shard-then-node balancer, and the flat front-end
        poller stays idle. ``levels=3`` inserts region aggregators
        between leaves and root (fan-outs near N^(1/3) — the large-N
        regime; see docs/FEDERATION.md).
        """
        _audit_kwargs("with_federation", extra,
                      ["num_shards", "leaf_interval", "root_interval",
                       "levels", "num_regions", "region_interval"])
        fed = self._section("federation")
        fed.enabled = True
        fed.num_shards = num_shards
        fed.leaf_interval = leaf_interval
        fed.root_interval = root_interval
        fed.levels = levels
        fed.num_regions = num_regions
        fed.region_interval = region_interval
        return self

    # -- assembly -------------------------------------------------------
    def build(self):
        """Wire everything up and return the :class:`RubisCluster` handle."""
        if self._built:
            raise RuntimeError("ClusterBuilder.build() may only be called once")
        self._built = True
        cfg = self._cfg
        if cfg.obs.enabled:
            # The exposition's richest source; attaching it is free in
            # simulated time, so fingerprints are unchanged.
            self._telemetry = True
        scheme_name = self._scheme_name
        sim = build_cluster(cfg)

        servers = [
            BackendServer(be, sim.rng.stream(f"db:{be.name}"),
                          workers=self._workers)
            for be in sim.backends
        ]
        for server in servers:
            server.start()

        federated = cfg.federation.enabled
        scheme = create_scheme(scheme_name, sim, interval=self._interval,
                               **self._scheme_kwargs)
        monitor = FrontendMonitor(scheme)
        if not federated:
            # With federation on, the flat front-end poller stays idle
            # (its O(N) fan-out is exactly what the two-level fabric
            # replaces); the deployed scheme remains available for
            # direct queries.
            monitor.start()

        telemetry = None
        if self._telemetry or self._alert_shedding:
            telemetry = TelemetryPipeline(rules=self._telemetry_rules)
            telemetry.attach(monitor)

        if telemetry is not None and sim.congestion is not None:
            telemetry.attach_congestion(sim.congestion)

        if telemetry is not None and sim.tenancy is not None:
            telemetry.attach_tenancy(sim.tenancy)

        faults = None
        if self._fault_schedule is not None:
            faults = FaultPlane(sim, self._fault_schedule).install()
            if telemetry is not None:
                telemetry.attach_faults(faults)

        heartbeat = None
        if self._heartbeat:
            heartbeat = HeartbeatMonitor(
                sim, interval=self._heartbeat_interval,
                timeout=self._heartbeat_timeout,
                hung_after=self._heartbeat_hung_after,
            )
            if telemetry is not None:
                telemetry.attach_heartbeat(heartbeat)

        federation = None
        if federated:
            federation = deploy_federation(sim, scheme_name=scheme_name,
                                           heartbeat=heartbeat)
            if telemetry is not None:
                telemetry.attach_federation(federation)
            if sim.tenancy is not None:
                # Quarantining a tenant re-splits shard assignments so
                # routing routes around the noisy neighborhood.
                sim.tenancy.federation = federation

        scaler = None
        if cfg.scaler.enabled:
            from repro.server.reconfig import ElasticScaler  # deferred: opt-in
            sc = cfg.scaler
            scaler = ElasticScaler(
                sim,
                view=(federation.root if federation is not None else monitor),
                interval=(sc.interval or cfg.monitor.interval),
                high_water=sc.high_water,
                low_water=sc.low_water,
                initial_active=sc.initial_active,
                min_active=sc.min_active,
                max_active=sc.max_active,
                up_after=sc.up_after,
                down_after=sc.down_after,
                cooldown=sc.cooldown,
                federation=federation,
                health=heartbeat,
            )
            if telemetry is not None:
                telemetry.attach_scaler(scaler)

        if federation is not None:
            balancer = TwoLevelBalancer(
                federation.topology,
                use_irq_pressure=(scheme_name == "e-rdma-sync"),
                rng=sim.rng.stream("loadbalancer"),
            )
        else:
            balancer = LeastLoadedBalancer(
                num_backends=len(servers),
                use_irq_pressure=(scheme_name == "e-rdma-sync"),
                rng=sim.rng.stream("loadbalancer"),
            )
        balancer.tracer = sim.spans
        balancer.trace_node = sim.frontend.name
        admission = None
        if self._admission:
            admission = AdmissionController(
                num_backends=len(servers),
                max_score=self._admission_max_score,
                balancer=balancer,
                alert_engine=(telemetry.engine
                              if self._alert_shedding and telemetry else None),
            )
            admission.tracer = sim.spans
            admission.trace_node = sim.frontend.name
        dispatcher = Dispatcher(
            sim.frontend, servers, balancer,
            monitor=(federation.root if federation is not None else monitor),
            admission=admission,
            health=(scaler if scaler is not None else heartbeat),
            telemetry=(telemetry if self._alert_shedding else None),
        )
        dispatcher.start()
        workloads = []
        if self._workloads:
            from repro.workloads import create_workload

            for spec, kwargs in self._workloads:
                obj = create_workload(
                    spec.name, sim,
                    dispatcher=(dispatcher if spec.needs_dispatcher else None),
                    **kwargs)
                if spec.needs_start:
                    obj.start()
                workloads.append(obj)
        cluster = RubisCluster(
            sim=sim,
            servers=servers,
            scheme=scheme,
            monitor=monitor,
            balancer=balancer,
            dispatcher=dispatcher,
            admission=admission,
            telemetry=telemetry,
            faults=faults,
            heartbeat=heartbeat,
            federation=federation,
            scaler=scaler,
            workloads=workloads,
        )
        if cfg.obs.enabled:
            from repro.obs import Observability  # deferred: heavy-ish, opt-in
            cluster.obs = Observability.deploy(cluster, cfg.obs)
        return cluster
