"""ClusterBuilder facade: defaults, config isolation and misuse.

The fingerprints of a minimal, a full-stack and a federated build are
pinned in tests/test_golden_fingerprints.py.
"""

import copy

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.monitoring.registry import ALL_SCHEME_NAMES, scheme_class
from repro.sim.units import ms


def test_builder_default_scheme_is_rdma_sync():
    app = ClusterBuilder(SimConfig(num_backends=2)).build()
    assert app.scheme.name == "rdma-sync"


def test_builder_leaves_caller_config_untouched():
    """Chain methods write the builder's own copy of a section, so one
    config can seed many clusters and what a chain omits stays off."""
    cfg = SimConfig(num_backends=4)
    snapshot = copy.deepcopy(cfg)
    (ClusterBuilder(cfg)
     .with_tracing(sample=0.5)
     .with_federation(num_shards=2)
     .congestion(dcqcn=False)
     .tenancy(icm_entries=16)
     .observability(namespace="x")
     .with_elastic_scaler(high_water=0.9)
     .build())
    assert cfg == snapshot
    app = ClusterBuilder(cfg).build()
    assert app.federation is None and app.scaler is None and app.obs is None
    assert app.sim.congestion is None and app.sim.tenancy is None
    assert not app.sim.spans.enabled


def test_build_is_single_shot():
    builder = ClusterBuilder(SimConfig(num_backends=2))
    builder.build()
    with pytest.raises(RuntimeError, match="only be called once"):
        builder.build()


def test_with_faults_rejects_junk():
    with pytest.raises(TypeError, match="FaultSchedule or schedule text"):
        ClusterBuilder().with_faults(42)


def test_scheme_kwargs_forwarded_and_validated():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", with_irq_detail=True)
           .build())
    assert app.scheme.read_irq_stat is True
    with pytest.raises(TypeError, match="rdma-sync"):
        (ClusterBuilder(SimConfig(num_backends=2))
         .scheme("rdma-sync", with_irqs=True)
         .build())


def test_builder_exported_from_package_root():
    import repro

    assert repro.ClusterBuilder is ClusterBuilder


# -- did-you-mean kwarg audit across every chain method ----------------
@pytest.mark.parametrize("method,typo,suggestion", [
    ("with_admission", {"max_scor": 0.9}, "max_score"),
    ("with_telemetry", {"rule": None}, "rules"),
    ("with_tracing", {"sampel": 0.5}, "sample"),
    ("with_heartbeat", {"intervall": 1000}, "interval"),
    ("with_heartbeat", {"hung_aftr": 3}, "hung_after"),
    ("with_federation", {"num_shard": 2}, "num_shards"),
])
def test_chain_method_typos_get_suggestions(method, typo, suggestion):
    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises(TypeError) as err:
        getattr(builder, method)(**typo)
    message = str(err.value)
    assert method in message
    assert f"did you mean {suggestion!r}" in message


@pytest.mark.parametrize("method,typo,suggestion", [
    ("congestion", {"ecn_kmn": 1024}, "ecn_kmin"),
    ("tenancy", {"icm_entrees": 16}, "icm_entries"),
    ("tenancy", {"qp_table_sze": 64}, "qp_table_size"),
    ("tenancy", {"defence": True}, "defense"),
    ("observability", {"namespce": "x"}, "namespace"),
    ("observability", {"http_prt": 9090}, "http_port"),
    ("observability", {"snapshot_dr": "/tmp"}, "snapshot_dir"),
])
def test_config_backed_methods_typos_get_suggestions(method, typo, suggestion):
    """congestion()/observability() knobs audit via the config schema."""
    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises((TypeError, AttributeError)) as err:
        getattr(builder, method)(**typo)
    assert f"did you mean {suggestion!r}" in str(err.value)


def test_chain_method_unknown_kwarg_without_match_lists_valid():
    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises(TypeError, match="valid keywords"):
        builder.with_tracing(zzz=1)


def test_observability_builds_surface():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .observability()
           .build())
    assert app.obs is not None
    assert app.telemetry is not None  # implied source
    assert app.obs.server is None     # http off by default
    assert app.obs.exposition().endswith("# EOF\n")


def test_observability_off_leaves_no_surface():
    app = ClusterBuilder(SimConfig(num_backends=2)).build()
    assert app.obs is None


# -- one place per knob ---------------------------------------------------
def test_with_federation_keeps_configured_knobs():
    """Only the keywords given are written; the rest of the caller's
    ``cfg.federation`` survives the chain method."""
    cfg = SimConfig(num_backends=16)
    cfg.federation.num_shards = 4
    cfg.federation.levels = 3
    cfg.federation.leaf_interval = ms(2)
    app = ClusterBuilder(cfg).with_federation(root_interval=ms(4)).build()
    fed = app.sim.cfg.federation
    assert (fed.enabled, fed.num_shards, fed.levels) == (True, 4, 3)
    assert (fed.leaf_interval, fed.root_interval) == (ms(2), ms(4))
    assert app.federation.topology.num_shards == 4
    assert app.federation.leaves[0].interval == ms(2)
    assert app.federation.root.interval == ms(4)
    assert len(app.federation.regions) > 0


def test_with_tracing_keeps_configured_sample_rate():
    cfg = SimConfig(num_backends=2)
    cfg.tracing.sample_rate = 0.25
    app = ClusterBuilder(cfg).with_tracing().build()
    assert app.sim.spans.enabled
    assert app.sim.cfg.tracing.sample_rate == 0.25
    app = ClusterBuilder(cfg).with_tracing(sample=0.5).build()
    assert app.sim.cfg.tracing.sample_rate == 0.5
    assert cfg.tracing.sample_rate == 0.25


def test_with_federation_accepts_every_federation_field():
    cfg = SimConfig(num_backends=8)
    app = (ClusterBuilder(cfg)
           .with_federation(snapshot_bytes_per_node=128,
                            rebalance_on_quarantine=False)
           .build())
    fed = app.sim.cfg.federation
    assert fed.snapshot_bytes_per_node == 128
    assert not app.federation.topology.rebalance_on_quarantine
    assert not cfg.federation.enabled


@pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
def test_federation_leaves_run_the_builder_scheme(name):
    """``scheme()`` chooses the leaf scheme, and a federated build runs
    one monitoring fabric: the leaves' threads, no flat poller."""
    app = (ClusterBuilder(SimConfig(num_backends=8))
           .scheme(name).with_federation(num_shards=2).build())
    app.run(ms(20))
    assert {leaf.scheme.name for leaf in app.federation.leaves} == {name}
    for backend in app.sim.backends:
        mon = [t for t in backend.sched.tasks if t.name.startswith("mon-")]
        assert len(mon) == scheme_class(name).backend_threads
    assert not [t for t in app.sim.frontend.sched.tasks
                if t.name == "frontend-monitor"]
    assert app.scheme is None
    assert app.monitor is app.dispatcher.monitor is app.federation.root


@pytest.mark.parametrize("levels", [2, 3])
def test_federation_leaves_take_the_scheme_interval_and_options(levels):
    """``scheme()``'s ``interval`` and keywords reach every leaf, and the
    upper tiers' "0 = the leaf interval" follows the leaves;
    ``leaf_interval`` still wins over the scheme's interval."""
    app = (ClusterBuilder(SimConfig(num_backends=8))
           .scheme("rdma-sync", interval=ms(7), with_irq_detail=True)
           .with_federation(num_shards=4, levels=levels).build())
    fed = app.federation
    assert {leaf.interval for leaf in fed.leaves} == {ms(7)}
    assert {leaf.scheme.interval for leaf in fed.leaves} == {ms(7)}
    assert all(leaf.scheme.read_irq_stat for leaf in fed.leaves)
    assert {region.interval for region in fed.regions} <= {ms(7)}
    assert fed.root.interval == ms(7)
    app = (ClusterBuilder(SimConfig(num_backends=8))
           .scheme("rdma-sync", interval=ms(7))
           .with_federation(num_shards=4, levels=levels,
                            leaf_interval=ms(3)).build())
    fed = app.federation
    assert {leaf.scheme.interval for leaf in fed.leaves} == {ms(3)}
    assert not any(leaf.scheme.read_irq_stat for leaf in fed.leaves)
    assert fed.root.interval == ms(3)


def test_federated_scheme_interval_must_be_positive():
    """A federated build rejects a non-positive ``scheme()`` interval as
    a flat one does: the leaves' schemes check it."""
    builder = (ClusterBuilder(SimConfig(num_backends=4))
               .scheme("rdma-sync", interval=0).with_federation(num_shards=2))
    with pytest.raises(ValueError, match="interval must be positive"):
        builder.build()


def test_with_federation_takes_no_scheme_keyword():
    """``scheme()`` is the one place that chooses the leaf scheme."""
    with pytest.raises(TypeError) as err:
        ClusterBuilder(SimConfig(num_backends=4)).with_federation(scheme="socket-sync")
    assert "unknown keyword 'scheme'" in str(err.value)
    assert "(valid keywords: enabled, leaf_interval, " in str(err.value)


def test_with_federation_rejects_the_removed_digest_knob():
    """Leaves keep no digests, so ``digest_compression`` is no knob."""
    with pytest.raises(TypeError) as err:
        ClusterBuilder(SimConfig(num_backends=4)).with_federation(
            digest_compression=32)
    assert "unknown keyword 'digest_compression'" in str(err.value)
    assert "(valid keywords: enabled, " in str(err.value)


def test_constructor_backed_methods_take_constructor_keywords():
    """Each accepts its constructor's keywords minus what build() wires;
    ``enabled`` is not one of them (calling the method switches on)."""
    builder = ClusterBuilder(SimConfig(num_backends=2))
    for method, valid in (
            ("with_elastic_scaler",
             "cooldown, down_after, high_water, initial_active, interval, "
             "low_water, max_active, min_active, up_after"),
            ("observability",
             "http, http_host, http_port, namespace, quantiles, "
             "snapshot_dir, snapshot_every"),
            ("with_heartbeat", "hung_after, interval, timeout"),
            ("with_admission", "max_score")):
        with pytest.raises(TypeError) as err:
            getattr(builder, method)(enabled=True)
        assert f"(valid keywords: {valid})" in str(err.value)


def test_scaler_knobs_reach_the_constructor():
    cfg = SimConfig(num_backends=4)
    cfg.monitor.interval = ms(30)
    app = ClusterBuilder(cfg).with_elastic_scaler().build()
    assert app.scaler.interval == ms(30)
    assert app.scaler.active == {0, 1, 2, 3}
    app = (ClusterBuilder(cfg)
           .with_elastic_scaler(interval=ms(13), initial_active=2,
                                max_active=3, cooldown=ms(200))
           .build())
    assert app.scaler.interval == ms(13)
    assert (app.scaler.active, app.scaler.max_active) == ({0, 1}, 3)
    assert app.scaler.cooldown == ms(200)
    with pytest.raises(ValueError, match="interval"):
        ClusterBuilder(cfg).with_elastic_scaler(interval=0).build()


def test_admission_and_heartbeat_defaults_come_from_constructors():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .with_admission().with_heartbeat().build())
    assert app.admission.max_score == 0.85
    hb = app.heartbeat
    assert (hb.interval, hb.timeout, hb.hung_after) == (ms(50), ms(10), 2)
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .with_admission(max_score=0.9).with_heartbeat(timeout=ms(3))
           .build())
    assert app.admission.max_score == 0.9
    assert (app.heartbeat.interval, app.heartbeat.timeout) == (ms(50), ms(3))


def test_observability_knobs_reach_the_surface():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .observability(namespace="acme", quantiles=(0.9,))
           .build())
    assert app.obs.registry.namespace == "acme"
    assert app.obs.registry.quantiles == (0.9,)
    with pytest.raises(ValueError, match="namespace"):
        (ClusterBuilder(SimConfig(num_backends=2))
         .observability(namespace="0bad").build())
