"""Job reports: trace/telemetry join, shape, determinism, rendering."""

import json

import pytest

from repro.config import SimConfig
from repro.obs.jobreport import JOB_REPORT_SCHEMA_VERSION, build_job_report
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.rubis import RUBIS_QUERIES, RubisWorkload


@pytest.fixture(scope="module")
def cluster():
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=4, master_seed=13)
    cluster = (ClusterBuilder(cfg).scheme("e-rdma-sync")
               .with_tracing().observability().build())
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=24,
                  think_time=6 * MILLISECOND).start()
    cluster.run(2 * SECOND)
    return cluster


@pytest.fixture(scope="module")
def report(cluster):
    return cluster.obs.job_report()


def test_payload_shape(report):
    p = report.payload
    assert p["schema_version"] == JOB_REPORT_SCHEMA_VERSION
    assert p["kind"] == "job-report"
    assert p["job"] == "rubis"
    assert p["sim_time_ns"] == 2 * SECOND
    assert p["requests"]["completed"] > 0
    assert set(p["backends"]) == {"0", "1", "2", "3"}


def test_every_query_class_reported(report, cluster):
    classes = report.payload["classes"]
    observed = set(cluster.dispatcher.stats.by_query())
    assert set(classes) == observed
    assert observed <= {q.name for q in RUBIS_QUERIES}
    for name, block in classes.items():
        assert block["count"] > 0
        rt = block["response_ms"]
        assert 0 < rt["p50"] <= rt["p95"] <= rt["p99"] <= rt["max"]


def test_critical_path_join(report):
    """Every class with sampled traces gets a per-segment breakdown."""
    for name, block in report.payload["classes"].items():
        cp = block["critical_path"]
        assert cp["traces"] > 0, name  # sample=1.0 → every request traced
        assert cp["total_us"] > 0
        assert cp["segments"], name
        assert cp["dominant"] in cp["segments"]
        # segment means can't exceed the whole path's mean
        assert max(cp["segments"].values()) <= cp["total_us"] + 1e-9


def test_backend_telemetry_join(report, cluster):
    per_backend = cluster.dispatcher.stats.per_backend_counts()
    for idx, block in report.payload["backends"].items():
        assert block["requests"] == per_backend.get(int(idx), 0)
        assert 0 <= block["cpu_util"]["p50"] <= block["cpu_util"]["p95"] <= 1.5
        assert block["staleness_ms"]["p95"] >= 0


def test_monitoring_block(report, cluster):
    mon = report.payload["monitoring"]
    assert mon["polls"] == cluster.monitor.polls
    assert mon["observations"] == cluster.telemetry.observations
    assert mon["traces"] == cluster.sim.spans.traces_started
    assert mon["spans"] == len(cluster.sim.spans.spans)


def test_json_is_deterministic_and_parseable(report):
    text = report.to_json()
    assert json.loads(text)["schema_version"] == JOB_REPORT_SCHEMA_VERSION
    assert text == report.to_json()
    # compact separators, sorted keys: canonical form
    assert ": " not in text and '"classes"' in text


def test_write_roundtrip(report, tmp_path):
    path = tmp_path / "report.json"
    report.write(path)
    assert json.loads(path.read_text()) == report.payload


def test_render_tables(report):
    text = report.render()
    assert "JOB REPORT: rubis" in text
    assert "Per-query-class response times" in text
    assert "Per-backend telemetry digests" in text
    assert "dominant segment" in text
    for name in report.payload["classes"]:
        assert name in text
    assert "Monitoring:" in text and "Requests:" in text


def test_untraced_cluster_reports_zero_traces():
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=2, master_seed=17)
    cluster = (ClusterBuilder(cfg).scheme("rdma-sync")
               .observability().build())
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=8,
                  think_time=6 * MILLISECOND).start()
    cluster.run(500 * MILLISECOND)
    report = build_job_report(cluster)
    classes = report.payload["classes"]
    assert classes  # response stats still present
    for block in classes.values():
        assert block["critical_path"]["traces"] == 0
        assert block["critical_path"]["total_us"] == 0.0
    assert "<no traces>" in report.render()


def test_federated_cluster_reports_the_routed_view_polls():
    """The polls count is the view the dispatcher routes on: the
    federated root."""
    from repro.api import ClusterBuilder

    cluster = (ClusterBuilder(SimConfig(num_backends=8, master_seed=19))
               .with_federation(num_shards=2, leaf_interval=5 * MILLISECOND)
               .build())
    cluster.run(200 * MILLISECOND)
    polls = build_job_report(cluster).payload["monitoring"]["polls"]
    assert cluster.monitor is cluster.federation.root
    assert polls == cluster.federation.root.polls == 40
