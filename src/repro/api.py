"""The front-door API: a fluent builder for a fully-wired cluster.

:class:`ClusterBuilder` is the one way to assemble the application
stack — booted cluster, back-end web servers, a monitoring scheme with
its front-end poller, the load balancer (extended scoring iff the
scheme is e-RDMA-Sync), and the dispatcher — plus any of the optional
planes (admission control, telemetry, alert shedding, span tracing,
fault injection, heartbeat failover, hierarchical federation in place
of the poller, congestion-realistic fabric)::

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
(property-tested). ``build()`` may be called once; it returns a
:class:`RubisCluster` handle.

A chain method passes on only the keywords it is given, to the one
place that declares, defaults and checks them: the plane's constructor
(heartbeat, admission, elastic scaler, observability surface) or its
:class:`~repro.config.SimConfig` section (tracing, federation,
congestion, tenancy). Sections are written in the builder's own copy,
so the caller's config is never changed and can seed any number of
clusters.

Background and tenant load is started through the workload registry:
either chained (``.workload("background", node=0, threads=4)``) or,
after the build, with :func:`repro.workloads.create_workload`.
:func:`repro.federation.deploy_federation`, which ``build()`` calls for
the federated fabric, also builds a bare fabric on a cluster with no
application stack.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Union

from repro.config import SimConfig, audit_keywords
from repro.faults import FaultPlane, FaultSchedule, parse_schedule
from repro.federation import FederatedMonitor, Federation, deploy_federation
from repro.hw.cluster import ClusterSim, build_cluster
from repro.monitoring import FrontendMonitor, MonitoringScheme, create_scheme
from repro.monitoring.heartbeat import HeartbeatMonitor
from repro.monitoring.registry import scheme_options
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
    #: the flat scheme; None when federated (see ``federation.leaves``)
    scheme: Optional[MonitoringScheme]
    #: the routed view: the flat poller, or ``federation.root``
    monitor: Union[FrontendMonitor, FederatedMonitor]
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


#: constructor parameters ``build()`` supplies itself
_WIRED = ("sim", "view", "federation", "health", "cluster")


def _audit(method: str, knobs: dict, valid) -> dict:
    """``knobs``, after rejecting any name not in ``valid`` with a hint."""
    audit_keywords(f"ClusterBuilder.{method}()", knobs, valid)
    return knobs


def _ctor_knobs(method: str, knobs: dict, ctor) -> dict:
    """``knobs``, audited against ``ctor``'s parameters minus the wired ones."""
    params = inspect.signature(ctor).parameters
    return _audit(method, knobs, [p for p in params if p not in _WIRED])


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
        self._telemetry = False
        self._telemetry_rules = None
        self._alert_shedding = False
        self._fault_schedule: Optional[FaultSchedule] = None
        # Constructor keywords of the planes build() constructs; None = off.
        self._admission: Optional[dict] = None
        self._heartbeat: Optional[dict] = None
        self._scaler: Optional[dict] = None
        self._obs: Optional[dict] = None
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
        probe loop; extra keywords are checked here and forwarded to the
        scheme constructor. Federated, both go to every leaf's scheme,
        and ``cfg.federation.leaf_interval``, when set, wins over
        ``interval``.
        """
        audit_keywords(f"ClusterBuilder.scheme({name!r})", kwargs,
                       scheme_options(name))
        self._scheme_name = name
        self._interval = interval
        self._scheme_kwargs = kwargs
        return self

    def workers(self, n: int) -> "ClusterBuilder":
        """Web-server worker processes per back-end (default from cfg)."""
        self._workers = n
        return self

    def with_admission(self, **knobs) -> "ClusterBuilder":
        """Reject requests when every back-end scores above ``max_score``."""
        self._admission = _audit("with_admission", knobs, ["max_score"])
        return self

    def with_telemetry(self, *, rules=None, **extra) -> "ClusterBuilder":
        """Attach the bounded telemetry pipeline to the routed view."""
        _audit("with_telemetry", extra, ["rules"])
        self._telemetry = True
        self._telemetry_rules = rules
        return self

    def with_alert_shedding(self) -> "ClusterBuilder":
        """Route around critically-alerted back-ends (implies telemetry)."""
        self._alert_shedding = True
        return self

    def with_tracing(self, *, sample: Optional[float] = None,
                     **extra) -> "ClusterBuilder":
        """Enable the causal span plane at head-sampling rate ``sample``
        (default: ``cfg.tracing.sample_rate``)."""
        _audit("with_tracing", extra, ["sample"])
        knobs = {} if sample is None else {"sample_rate": sample}
        return self._enable("tracing", "with_tracing", knobs)

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

    def with_heartbeat(self, **knobs) -> "ClusterBuilder":
        """Run the RDMA heartbeat monitor and health-aware failover.

        Keywords are :class:`~repro.monitoring.heartbeat.HeartbeatMonitor`'s
        (``interval``, ``timeout``, ``hung_after``).
        """
        self._heartbeat = _ctor_knobs("with_heartbeat", knobs, HeartbeatMonitor)
        return self

    def _enable(self, section: str, method: str, knobs: dict) -> "ClusterBuilder":
        """Switch on config section ``section`` and set the given knobs.

        Writes the builder's own copy of the section; names that are not
        fields of the section raise with ``method`` in the message.
        """
        sec = getattr(self._cfg, section)
        _audit(method, knobs, [f.name for f in fields(sec)])
        sec = self._section(section)
        sec.enabled = True
        for name, value in knobs.items():
            setattr(sec, name, value)
        return self

    def congestion(self, **knobs) -> "ClusterBuilder":
        """Enable the congestion-realistic fabric (ECN/DCQCN/PFC).

        Keywords are ``cfg.congestion`` fields (``dcqcn=False``,
        ``ecn_kmin=...``, ``pfc_xoff=...``, ...). Calling this method
        at all switches the plane on.
        """
        return self._enable("congestion", "congestion", knobs)

    def tenancy(self, **knobs) -> "ClusterBuilder":
        """Enable the multi-tenant NIC resource model (see repro.tenancy).

        Keywords are ``cfg.tenancy`` fields (``qp_table_size=...``,
        ``icm_entries=...``, ``defense=True``, ``offend_mbps=...``, ...).
        Calling this method at all installs the plane, giving every NIC
        a bounded QP table and a shared ICM context cache, and policing
        tenant verbs at post time. The built cluster's
        ``sim.tenancy`` handle carries the registry and defense loop.
        """
        return self._enable("tenancy", "tenancy", knobs)

    def observability(self, **knobs) -> "ClusterBuilder":
        """Enable the OpenMetrics observability surface (see repro.obs).

        Keywords are those of
        :meth:`~repro.obs.surface.Observability.deploy` (``namespace``,
        ``quantiles``, ``snapshot_dir``, ``snapshot_every``, ``http``,
        ``http_host``, ``http_port``). The build also attaches the
        telemetry pipeline (the registry's richest source) exactly as
        :meth:`with_telemetry` would.

        The built cluster's ``obs`` handle carries the registry, the
        ``/metrics`` server (when ``http=True``) and
        :meth:`~repro.obs.surface.Observability.job_report`.
        """
        from repro.obs import Observability  # deferred: heavy-ish, opt-in

        self._obs = _ctor_knobs("observability", knobs, Observability.deploy)
        return self

    def with_elastic_scaler(self, **knobs) -> "ClusterBuilder":
        """Enable monitoring-driven elastic autoscaling (see server.reconfig).

        Keywords are those of :class:`~repro.server.reconfig.ElasticScaler`
        (``interval``, ``high_water``, ``low_water``, ``initial_active``,
        ``min_active``, ``max_active``, ``up_after``, ``down_after``,
        ``cooldown``). The scaler reads the routed view, the built
        cluster's ``monitor``. Its ``scaler`` handle keeps the
        scale-event log and publishes each evaluation to ``observers``.
        """
        from repro.server.reconfig import ElasticScaler  # deferred: opt-in

        self._scaler = _ctor_knobs("with_elastic_scaler", knobs, ElasticScaler)
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

    def with_federation(self, **knobs) -> "ClusterBuilder":
        """Deploy the sharded monitoring fabric (two or three tiers).

        Equivalent to setting ``cfg.federation.enabled`` (plus the given
        ``cfg.federation`` fields) before building: leaves poll their
        shard with the scheme chosen by :meth:`scheme`, the root merges
        leaf snapshots and is the built cluster's ``monitor`` (no flat
        poller is deployed; ``scheme`` is ``None``), and the dispatcher
        routes through the shard-then-node balancer. ``levels=3``
        inserts region aggregators between leaves and root (fan-outs
        near N^(1/3) — the large-N regime; see docs/FEDERATION.md).
        """
        return self._enable("federation", "with_federation", knobs)

    # -- assembly -------------------------------------------------------
    def build(self):
        """Wire everything up and return the :class:`RubisCluster` handle."""
        if self._built:
            raise RuntimeError("ClusterBuilder.build() may only be called once")
        self._built = True
        cfg = self._cfg
        if self._obs is not None:
            # The exposition's richest source; attaching it is free in
            # simulated time, so fingerprints are unchanged.
            self._telemetry = True
        scheme_name = self._scheme_name
        sim = build_cluster(cfg)

        servers = [BackendServer(be, sim.rng, workers=self._workers)
                   for be in sim.backends]
        for server in servers:
            server.start()

        # One fabric: this flat poller or, below, the federation.
        federated = cfg.federation.enabled
        scheme = None
        if not federated:
            scheme = create_scheme(scheme_name, sim, interval=self._interval,
                                   **self._scheme_kwargs)
            monitor = FrontendMonitor(scheme)
            monitor.start()

        telemetry = None
        if self._telemetry or self._alert_shedding:
            telemetry = TelemetryPipeline(rules=self._telemetry_rules)

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
        if self._heartbeat is not None:
            heartbeat = HeartbeatMonitor(sim, **self._heartbeat)
            if telemetry is not None:
                telemetry.attach_heartbeat(heartbeat)

        federation = None
        if federated:
            federation = deploy_federation(sim, scheme_name=scheme_name,
                                           heartbeat=heartbeat,
                                           interval=self._interval,
                                           **self._scheme_kwargs)
            monitor = federation.root
            if telemetry is not None:
                telemetry.attach_federation(federation)
            if sim.tenancy is not None:
                # Quarantining a tenant re-splits shard assignments so
                # routing routes around the noisy neighborhood.
                sim.tenancy.federation = federation
        if telemetry is not None:
            # Either view delivers each back-end report to observers.
            telemetry.attach(monitor)

        scaler = None
        if self._scaler is not None:
            from repro.server.reconfig import ElasticScaler

            scaler = ElasticScaler(
                sim,
                view=monitor,
                federation=federation,
                health=heartbeat,
                **self._scaler,
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
        if self._admission is not None:
            admission = AdmissionController(
                num_backends=len(servers),
                balancer=balancer,
                alert_engine=(telemetry.engine
                              if self._alert_shedding and telemetry else None),
                **self._admission,
            )
            admission.tracer = sim.spans
            admission.trace_node = sim.frontend.name
        dispatcher = Dispatcher(
            sim.frontend, servers, balancer,
            monitor=monitor,
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
        if self._obs is not None:
            from repro.obs import Observability

            cluster.obs = Observability.deploy(cluster, **self._obs)
        return cluster
