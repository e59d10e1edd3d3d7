"""Pipeline wiring: observer chaining, 1e6-poll bound, federated views."""

import numpy as np
import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.monitoring.frontend import FrontendMonitor
from repro.monitoring.loadinfo import LoadInfo
from repro.sim.units import MILLISECOND, SECOND
from repro.telemetry.alerts import Severity, ThresholdRule
from repro.telemetry.pipeline import DEFAULT_METRICS, TelemetryPipeline
from repro.workloads.rubis import RubisWorkload


class StubScheme:
    """Minimal MonitoringScheme stand-in for observer-path tests."""

    def __init__(self):
        from types import SimpleNamespace

        self.sim = SimpleNamespace(frontend=None)
        self.interval = 1


def make_monitor() -> FrontendMonitor:
    return FrontendMonitor(StubScheme())


def info_for(backend: int, t: int, cpu: float, runq: float = 1.0) -> LoadInfo:
    return LoadInfo(
        backend=f"backend{backend}", collected_at=t - 1000, received_at=t,
        nr_running=2, runq_load=runq, cpu_util=cpu,
    )


def test_observer_chain_preserves_existing_observer():
    seen = []
    monitor = make_monitor()
    monitor.observers.append(lambda i, info: seen.append(i))
    pipe = TelemetryPipeline(metrics=("cpu_util",)).attach(monitor)
    # A later subscriber runs after the pipeline has ingested the report.
    monitor.observers.append(lambda i, info: seen.append(pipe.observations))
    monitor._record(0, info_for(0, 100, 0.5))
    assert seen == [0, 1]
    assert pipe.observations == 1
    assert pipe.digest(0, "cpu_util").count == 1


def test_pipeline_tracks_all_default_metrics():
    monitor = make_monitor()
    pipe = TelemetryPipeline().attach(monitor)
    monitor._record(1, info_for(1, 100, 0.5))
    assert pipe.store.names() == sorted(f"b1.{m}" for m in DEFAULT_METRICS)
    assert pipe.backends() == [1]
    # staleness is the derived property, recorded like any field
    assert pipe.digest(1, "staleness").mean == 1000.0


def test_million_polls_bounded_memory_and_accurate_digests():
    """The acceptance bar: >= 1e6 polls, O(capacity) retention, <= 1 %
    quantile error against the exact percentiles of the full stream."""
    capacity = 512
    monitor = make_monitor()
    pipe = TelemetryPipeline(capacity=capacity, metrics=("cpu_util",),
                             rules=[]).attach(monitor)
    n = 1_000_000
    rng = np.random.default_rng(123)
    values = rng.beta(2.0, 5.0, n)  # skewed load-like distribution in [0,1]
    info = info_for(0, 0, 0.0)
    for t in range(n):
        info.received_at = t
        info.cpu_util = float(values[t])
        monitor._record(0, info)

    # Every retention tier stays within its bound.
    ring = pipe.store.ring("b0.cpu_util")
    assert len(ring.raw) <= capacity
    assert len(ring.mid) <= capacity
    assert len(ring.coarse) <= capacity
    assert ring.raw.pushed == n

    # Digest quantiles within 1 % of the exact percentiles.
    digest = pipe.digest(0, "cpu_util")
    assert digest.count == n
    span = float(values.max() - values.min())
    for q in (0.50, 0.95, 0.99):
        exact = float(np.percentile(values, q * 100))
        assert abs(digest.quantile(q) - exact) <= 0.01 * span, q


def test_alert_rules_fire_through_pipeline():
    monitor = make_monitor()
    pipe = TelemetryPipeline(
        metrics=("cpu_util",),
        rules=[ThresholdRule("overload", metric="cpu_util", fire_above=0.9,
                             clear_below=0.7, severity=Severity.CRITICAL,
                             sheds=True)],
    ).attach(monitor)
    monitor._record(0, info_for(0, 1, 0.95))
    monitor._record(1, info_for(1, 1, 0.2))
    assert pipe.engine.shed_backends() == [0]
    monitor._record(0, info_for(0, 2, 0.5))
    assert pipe.engine.shed_backends() == []


def test_pipeline_on_live_cluster_run():
    """End-to-end: deployed stack, real poll loop, digests populated."""
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", interval=50 * MILLISECOND)
           .with_telemetry()
           .build())
    workload = RubisWorkload(app.sim, app.dispatcher, num_clients=8,
                             think_time=3 * MILLISECOND)
    workload.start()
    app.run(1 * SECOND)
    assert app.telemetry is not None
    assert app.telemetry.observations == 2 * app.monitor.polls
    assert app.telemetry.backends() == [0, 1]
    digest = app.telemetry.digest(0, "cpu_util")
    assert digest is not None and digest.count == app.monitor.polls
    assert 0.0 <= digest.p50 <= 1.0
    # telemetry consumed zero simulated time: poll cadence unchanged
    assert app.monitor.polls == pytest.approx(1 * SECOND / (50 * MILLISECOND), abs=2)


@pytest.mark.parametrize("levels", [2, 3])
def test_federated_root_feeds_per_backend_telemetry(levels):
    """The federated root delivers each back-end report to telemetry,
    as the flat poller does: per-back-end series, exposition summaries
    and job-report quantiles, with no report delivered twice."""
    from repro.obs.jobreport import build_job_report

    cluster = (ClusterBuilder(SimConfig(num_backends=8, master_seed=19))
               .with_federation(num_shards=2, levels=levels,
                                leaf_interval=5 * MILLISECOND)
               .observability().build())
    delivered = []
    cluster.monitor.observers.append(
        lambda i, info: delivered.append((i, info.collected_at)))
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=8,
                  think_time=6 * MILLISECOND).start()
    cluster.run(200 * MILLISECOND)

    assert cluster.monitor is cluster.federation.root
    assert cluster.telemetry.observations == len(delivered) > 0
    assert len(set(delivered)) == len(delivered)
    assert cluster.telemetry.backends() == list(range(8))
    text = cluster.obs.exposition()
    for b in range(8):
        assert f'repro_backend_cpu_util{{backend="{b}",' in text, b
    served = cluster.dispatcher.stats.per_backend_counts()
    busiest = max(served, key=served.get)
    backends = build_job_report(cluster).payload["backends"]
    assert backends[str(busiest)]["cpu_util"]["p50"] > 0.0


def test_federated_root_delivers_each_report_once():
    """The root reads each leaf snapshot twice per leaf period here, and
    a leaf republishes a member's last report after a failed probe:
    neither reaches the root's observers twice."""
    cfg = SimConfig(num_backends=8, master_seed=3)
    cfg.monitor.probe_timeout = 2 * MILLISECOND
    cfg.monitor.probe_retries = 2
    app = (ClusterBuilder(cfg)
           .with_federation(num_shards=2, leaf_interval=2 * MILLISECOND,
                            root_interval=1 * MILLISECOND)
           .with_faults("from 20ms to 150ms verb-nak backend1 p=0.5\n"
                        "from 20ms to 150ms verb-nak backend6 p=0.5")
           .build())
    delivered = []
    app.monitor.observers.append(
        lambda i, info: delivered.append((i, info.collected_at)))
    app.run(200 * MILLISECOND)
    leaves = app.federation.leaves
    assert sum(leaf.scheme.fault_stats()["failures"] for leaf in leaves) > 0
    assert app.monitor.polls > leaves[0].epoch
    assert len(set(delivered)) == len(delivered) > 0
