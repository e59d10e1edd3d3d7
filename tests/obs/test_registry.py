"""MetricsRegistry: naming, key grammar, plane coverage, determinism."""

import pytest

from repro.config import SimConfig
from repro.monitoring.loadinfo import LoadInfo
from repro.obs.openmetrics import validate_exposition
from repro.obs.registry import (
    MetricsRegistry,
    collect_telemetry,
    sanitize_metric_name,
)
from repro.sim.units import MILLISECOND, SECOND
from repro.telemetry.pipeline import TelemetryPipeline
from repro.workloads.rubis import RubisWorkload


def build_cluster_with(seed=7, duration=SECOND, **builder_calls):
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=3, master_seed=seed)
    builder = ClusterBuilder(cfg).scheme("e-rdma-sync")
    for method, kwargs in builder_calls.items():
        getattr(builder, method)(**kwargs)
    builder.observability()
    cluster = builder.build()
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=12,
                  think_time=8 * MILLISECOND).start()
    cluster.run(duration)
    return cluster


def test_sanitize_metric_name():
    assert sanitize_metric_name("cpu_util") == "cpu_util"
    assert sanitize_metric_name("net-rate.mbps") == "net_rate_mbps"
    assert sanitize_metric_name("0leading") == "_0leading"


def test_namespace_validation():
    with pytest.raises(ValueError):
        MetricsRegistry(namespace="0bad")
    reg = MetricsRegistry(namespace="acme")
    fam = reg.family("up", "gauge", "x")
    assert fam.name == "acme_up"


def test_duplicate_family_across_collectors_raises():
    reg = MetricsRegistry()
    reg.register(lambda: [reg.family("dup", "gauge", "a").add(1)])
    reg.register(lambda: [reg.family("dup", "gauge", "b").add(2)])
    with pytest.raises(ValueError, match="two collectors"):
        reg.collect()


def test_telemetry_key_grammar_maps_to_entity_labels():
    pipe = TelemetryPipeline(metrics=("cpu_util",))
    pipe.observe(2, LoadInfo(backend="backend2", collected_at=0,
                             received_at=500, cpu_util=0.4, runq_load=1.0))
    # shard and switch series enter via the store + digests directly
    pipe.store.add("s1.cpu_util", 0, 0.5)
    pipe.store.add("sw3.depth", 0, 4096.0)
    from repro.telemetry.digest import StreamingDigest

    for key, v in (("s1.cpu_util", 0.5), ("sw3.depth", 4096.0),
                   ("weird key!", 1.0)):
        d = StreamingDigest()
        d.update(v)
        pipe._digests[key] = d

    reg = MetricsRegistry()
    text_families = {f.name: f for f in collect_telemetry(reg, pipe)}
    assert "repro_backend_cpu_util" in text_families
    assert "repro_shard_cpu_util" in text_families
    assert "repro_switch_depth" in text_families
    # out-of-grammar keys fall back to a series label
    assert "repro_series_weird_key_" in text_families
    backend = text_families["repro_backend_cpu_util"]
    assert any(("backend", "2") in labels for _, labels, _ in backend.samples)
    switch = text_families["repro_switch_depth"]
    assert any(("port", "3") in labels for _, labels, _ in switch.samples)
    fallback = text_families["repro_series_weird_key_"]
    assert any(("series", "weird key!") in labels
               for _, labels, _ in fallback.samples)


def test_from_cluster_registers_only_present_planes():
    cluster = build_cluster_with()
    text = cluster.obs.exposition()
    # base planes always present
    assert "repro_build_info" in text
    assert "repro_sim_time_ns" in text
    assert "repro_monitor_polls_total" in text
    assert "repro_requests_total" in text
    assert "repro_backend_cpu_util" in text
    # absent planes contribute no metric families
    assert "repro_federation_epoch" not in text
    assert "repro_switch_enqueued" not in text
    assert "repro_fault_actions" not in text
    assert "repro_heartbeat_probes" not in text
    assert "repro_traces_started" not in text


def test_from_cluster_full_stack_coverage():
    cluster = build_cluster_with(
        with_tracing={}, with_heartbeat={},
        with_faults={"schedule": "at 100ms crash backend1\n"
                                 "at 300ms recover backend1"},
        congestion={},
    )
    text = cluster.obs.exposition()
    assert validate_exposition(text) == []
    for needle in (
        "repro_traces_started_total",
        "repro_spans_committed_total",
        "repro_heartbeat_probes_total",
        "repro_backend_quarantined",
        "repro_fault_actions_total",
        "repro_switch_enqueued_total",
        "repro_probe_events_total",
        "repro_response_time_ns",
        'quantile="0.5"',
    ):
        assert needle in text, needle


def test_federated_cluster_exposes_shard_families():
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=8, master_seed=3)
    cluster = (ClusterBuilder(cfg).scheme("rdma-sync")
               .with_federation(num_shards=2).observability().build())
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=8,
                  think_time=8 * MILLISECOND).start()
    cluster.run(400 * MILLISECOND)
    text = cluster.obs.exposition()
    assert validate_exposition(text) == []
    assert "repro_federation_epoch" in text
    assert 'repro_federation_shard_members{shard="0"}' in text
    assert 'repro_federation_shard_members{shard="1"}' in text
    assert "repro_shard_cpu_util" in text
    polls = cluster.federation.root.polls
    assert polls > 0
    assert f"repro_monitor_polls_total {polls}\n" in text


def test_federated_probe_events_sum_the_leaf_schemes():
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=8, master_seed=3)
    cfg.monitor.probe_timeout = 2 * MILLISECOND
    cfg.monitor.probe_retries = 2
    cluster = (ClusterBuilder(cfg).scheme("rdma-sync")
               .with_federation(num_shards=2, leaf_interval=5 * MILLISECOND)
               .with_faults("from 20ms to 150ms verb-nak backend1 p=0.5\n"
                            "from 20ms to 150ms verb-nak backend6 p=0.5")
               .observability().build())
    cluster.run(200 * MILLISECOND)
    text = cluster.obs.exposition()
    leaves = [leaf.scheme.fault_stats() for leaf in cluster.federation.leaves]
    assert all(stats["naks"] > 0 for stats in leaves)  # both shards probed
    for kind in ("naks", "retries", "failures"):
        total = sum(stats[kind] for stats in leaves)
        assert f'repro_probe_events_total{{kind="{kind}"}} {total}\n' in text


def test_custom_namespace_and_quantiles():
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=2, master_seed=5)
    cluster = (ClusterBuilder(cfg).scheme("rdma-sync")
               .observability(namespace="acme", quantiles=(0.9,))
               .build())
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=8,
                  think_time=8 * MILLISECOND).start()
    cluster.run(300 * MILLISECOND)
    text = cluster.obs.exposition()
    assert validate_exposition(text) == []
    assert "acme_backend_cpu_util" in text
    assert 'quantile="0.9"' in text
    assert 'quantile="0.5"' not in text
    assert "repro_" not in text


def test_collection_is_side_effect_free():
    cluster = build_cluster_with(duration=300 * MILLISECOND)
    first = cluster.obs.exposition()
    for _ in range(5):
        assert cluster.obs.exposition() == first


def test_quantiles_validation():
    for bad in ((), (0.5, 1.5), (-0.1,)):
        with pytest.raises(ValueError, match="quantiles"):
            MetricsRegistry(quantiles=bad)
    assert MetricsRegistry(quantiles=(0.0, 1.0)).quantiles == (0.0, 1.0)
