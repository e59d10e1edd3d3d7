"""ClusterBuilder facade: defaults, config isolation and misuse.

The fingerprints of a minimal, a full-stack and a federated build are
pinned in tests/test_golden_fingerprints.py.
"""

import copy

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig


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
