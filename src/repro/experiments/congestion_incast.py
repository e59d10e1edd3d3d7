"""Incast at the aggregation point: what congestion control buys.

The federation root is a built-in incast: every root period, N leaf
snapshot reads converge on one front-end port. On a quiet fabric that
is harmless (the reads are small and the switch is non-blocking), but
production fabrics are *shared* — here a set of open-loop tenant flows
(the ``"incast"`` workload of :mod:`repro.workloads`) blasts the same
port with one-sided writes at an offered load proportional to N.

Three arms per cluster size:

* ``uncontrolled`` — congestion modeled, no reaction (no PFC, no
  DCQCN): the victim port's queue grows without bound, every snapshot
  read's response queues behind the backlog, and the root's view age
  grows **super-linearly in N** (backlog rate ∝ offered − capacity).
* ``pfc`` — pause frames alone: the queue is bounded at ``pfc_xoff``,
  but pushback is per-*port*, so innocent leaf responses get paused
  behind tenant traffic (classic PFC head-of-line victims).
* ``dcqcn`` — ECN marking + per-flow rate control: tenant flows are
  cut to the link's capacity, the queue hovers at the marking knee and
  monitoring freshness stays within a small constant of the period.

``run_scheme_matrix`` asks the complementary question: with the fabric
congested (DCQCN arm), how do the paper's six monitoring schemes and
the federated design fare on freshness — and what does the shared
bottleneck do to RUBiS tail latency?
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import mean, percentile
from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.federation import deploy_federation
from repro.hw.cluster import build_cluster
from repro.monitoring.base import QueryRecord
from repro.monitoring.registry import SCHEME_NAMES
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND
from repro.workloads import create_workload
from repro.workloads.rubis import RubisWorkload

DEFAULT_SIZES: Sequence[int] = (4, 8, 16)
DEFAULT_INTERVAL: int = 1 * MILLISECOND

#: arm -> (pfc, dcqcn); all three model congestion, they differ in the
#: control loop that pushes back on it
ARMS: Dict[str, tuple] = {
    "uncontrolled": (False, False),
    "pfc": (True, False),
    "dcqcn": (True, True),
}

#: one tenant flow per back-end at 8 KiB / 50 µs ≈ 0.16 B/ns each, so
#: offered load crosses the 1 B/ns link at ~6 flows: N = 4 is
#: subcritical, N = 8 and 16 are 1.3x and 2.6x overloaded
TENANT_BYTES: int = 8192
TENANT_INTERVAL: int = 50 * MICROSECOND


def _arm_config(n: int, arm: str, interval: int,
                monitor_priority: bool = False) -> SimConfig:
    pfc, dcqcn = ARMS[arm]
    cfg = SimConfig(num_backends=n)
    cfg.federation.enabled = True
    cfg.federation.leaf_interval = interval
    cfg.federation.root_interval = interval
    cfg.congestion.enabled = True
    cfg.congestion.pfc = pfc
    cfg.congestion.dcqcn = dcqcn
    cfg.congestion.monitor_priority = monitor_priority
    return cfg


def run_incast(
    n: int,
    arm: str,
    interval: int = DEFAULT_INTERVAL,
    duration: int = 50 * MILLISECOND,
    flows_per_source: int = 1,
    monitor_priority: bool = False,
) -> Dict[str, float]:
    """One incast point: N back-ends blasting the federation root's port.

    Returns root-view freshness and victim-port switch statistics. Two
    freshness metrics are reported: per-round *staleness* (delivery age
    when a snapshot lands, sampled only when a round completes) and
    wall-clock *view age* (how old the root's current view is, sampled
    every root period by a zero-cost observer). The distinction matters
    for the uncontrolled arm: once the backlog stalls the reads, rounds
    stop completing, so staleness samples dry up while the view age
    keeps climbing — view age is the honest divergence measure.

    ``monitor_priority`` puts monitoring QPs in a PFC priority class
    (``cfg.congestion.monitor_priority``): pause frames aimed at tenant
    traffic no longer stall probe flows, so the ``pfc`` arm's
    head-of-line victimization of innocent monitoring disappears.
    """
    cfg = _arm_config(n, arm, interval, monitor_priority=monitor_priority)
    sim = build_cluster(cfg)
    fed = deploy_federation(sim)
    create_workload(
        "incast", sim, target=sim.frontend, sources=sim.backends,
        flows_per_source=flows_per_source,
        message_bytes=TENANT_BYTES, interval=TENANT_INTERVAL,
    )
    staleness: List[int] = []
    view_age: List[int] = []

    def observer(epoch: int, latest: dict) -> None:
        for info in latest.values():
            staleness.append(info.staleness)

    def sample_age(_ev=None) -> None:
        # Pure observation on the event queue — no task, no CPU time,
        # so the measurement cannot perturb any arm.
        latest = fed.root.latest
        if latest:
            now = sim.env.now
            view_age.append(max(now - info.collected_at
                                for info in latest.values()))
        t = sim.env.timeout(interval)
        assert t.callbacks is not None
        t.callbacks.append(sample_age)

    fed.root.round_observers.append(observer)
    sample_age()
    sim.run(duration)
    plane = sim.congestion
    assert plane is not None
    victim = plane.switch.stats().get(sim.frontend.nic.name, {})
    out = {
        "n": n,
        "arm": arm,
        "staleness_mean_ms": mean(staleness) / 1e6 if staleness else 0.0,
        "staleness_p95_ms": percentile(staleness, 95) / 1e6 if staleness else 0.0,
        "view_age_p95_ms": percentile(view_age, 95) / 1e6 if view_age else 0.0,
        "view_age_final_ms": view_age[-1] / 1e6 if view_age else 0.0,
        "samples": len(staleness),
        "root_rounds": len(fed.root.rounds),
        "root_round_mean_us": mean(fed.root.rounds) / 1e3,
        "peak_depth_kb": victim.get("peak_depth", 0) / 1024.0,
        "mark_rate": victim.get("mark_rate", 0.0),
        "pauses": victim.get("pauses", 0),
        "pause_ms": victim.get("pause_ns", 0) / 1e6,
        "cnps": plane.cnps_delivered,
    }
    if plane._flows:
        out["min_flow_rate"] = min(
            f.rate for f in plane._flows.values())
    return out


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    interval: int = DEFAULT_INTERVAL,
    duration: int = 50 * MILLISECOND,
    arms: Sequence[str] = tuple(ARMS),
) -> ExperimentResult:
    """Incast sweep: root-view staleness per arm across cluster sizes."""
    result = ExperimentResult(
        name="congestion_incast",
        params={"interval": interval, "duration": duration,
                "tenant_bytes": TENANT_BYTES,
                "tenant_interval": TENANT_INTERVAL},
        xs=list(sizes),
    )
    series: Dict[str, List[float]] = {}
    for arm in arms:
        series[f"{arm}_staleness_p95_ms"] = []
        series[f"{arm}_view_age_final_ms"] = []
        series[f"{arm}_peak_depth_kb"] = []
    for n in sizes:
        for arm in arms:
            row = run_incast(n, arm, interval=interval, duration=duration)
            result.tables[f"{arm}:{n}"] = row
            series[f"{arm}_staleness_p95_ms"].append(row["staleness_p95_ms"])
            series[f"{arm}_view_age_final_ms"].append(row["view_age_final_ms"])
            series[f"{arm}_peak_depth_kb"].append(row["peak_depth_kb"])
    result.series = series
    result.notes = (
        "Root-view p95 staleness (ms) under open-loop incast at the "
        "aggregation port. Uncontrolled: backlog ∝ (offered − capacity) "
        "x time, so staleness grows super-linearly in N once the link "
        "saturates. PFC bounds the queue but pauses innocent senders. "
        "DCQCN cuts tenant rates at the ECN knee and keeps freshness "
        "within a small constant of the poll period."
    )
    return result


# ----------------------------------------------------------------------
# scheme matrix under a congested fabric
# ----------------------------------------------------------------------
def run_one_scheme(
    scheme_name: str,
    duration: int = 2 * SECOND,
    poll_interval: int = 10 * MILLISECOND,
    num_backends: int = 4,
    workers: int = 32,
    num_clients: int = 64,
    tenant_flows_per_source: int = 2,
) -> Dict[str, float]:
    """RUBiS + heavy tenants + congestion (DCQCN arm) for one scheme.

    ``scheme_name`` may be any registry scheme or ``"federated"`` for
    the two-level fabric. Returns monitoring freshness and RUBiS tail
    latency on the shared, congested fabric.
    """
    federated = scheme_name == "federated"
    cfg = SimConfig(num_backends=num_backends)
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    cfg.congestion.enabled = True
    if federated:
        cfg.federation.enabled = True
        cfg.federation.leaf_interval = poll_interval
        cfg.federation.root_interval = poll_interval
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync" if federated else scheme_name,
                   interval=poll_interval)
           .workers(workers)
           .build())
    create_workload(
        "incast", app.sim, target=app.sim.frontend, sources=app.sim.backends,
        flows_per_source=tenant_flows_per_source,
        message_bytes=TENANT_BYTES, interval=TENANT_INTERVAL,
    )
    staleness: List[int] = []
    if federated:
        assert app.federation is not None

        def observer(epoch: int, latest: dict) -> None:
            for info in latest.values():
                staleness.append(info.staleness)

        app.federation.root.round_observers.append(observer)
    else:
        def on_probe(record: QueryRecord) -> None:
            if record.ok:
                staleness.append(record.info.staleness)

        app.scheme.observers.append(on_probe)
    workload = RubisWorkload(
        app.sim, app.dispatcher,
        num_clients=num_clients, think_time=3 * MILLISECOND,
    )
    workload.start()
    app.run(duration)
    times_ms = [t / 1e6 for t in app.dispatcher.stats.response_times()]
    plane = app.sim.congestion
    assert plane is not None
    victim = plane.switch.stats().get(app.sim.frontend.nic.name, {})
    return {
        "scheme": scheme_name,
        "staleness_mean_ms": mean(staleness) / 1e6 if staleness else 0.0,
        "staleness_p95_ms": percentile(staleness, 95) / 1e6 if staleness else 0.0,
        "rubis_p99_ms": percentile(times_ms, 99) if times_ms else 0.0,
        "rubis_max_ms": max(times_ms) if times_ms else 0.0,
        "requests": len(times_ms),
        "throughput_rps": app.dispatcher.stats.throughput(duration),
        "mark_rate": victim.get("mark_rate", 0.0),
        "cnps": plane.cnps_delivered,
    }


def run_scheme_matrix(
    schemes: Optional[Sequence[str]] = None,
    duration: int = 2 * SECOND,
    **overrides,
) -> ExperimentResult:
    """All six schemes plus the federated design on a congested fabric."""
    if schemes is None:
        schemes = tuple(SCHEME_NAMES) + ("federated",)
    result = ExperimentResult(
        name="congestion_scheme_matrix",
        params={"duration": duration, **overrides},
        xs=list(schemes),
    )
    series: Dict[str, List[float]] = {
        "staleness_p95_ms": [], "rubis_p99_ms": [], "throughput_rps": [],
    }
    for scheme_name in schemes:
        row = run_one_scheme(scheme_name, duration=duration, **overrides)
        result.tables[scheme_name] = row
        series["staleness_p95_ms"].append(row["staleness_p95_ms"])
        series["rubis_p99_ms"].append(row["rubis_p99_ms"])
        series["throughput_rps"].append(row["throughput_rps"])
    result.series = series
    result.notes = (
        "Monitoring freshness and RUBiS tails with heavy tenant traffic "
        "sharing the front-end port (DCQCN arm). One-sided schemes keep "
        "their load-independence on the *remote* side, but every reply "
        "crosses the congested port — rate control is what keeps both "
        "freshness and application tails bounded."
    )
    return result
