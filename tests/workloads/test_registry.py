"""Tests for the unified workload registry: names, keywords and nodes
are audited with did-you-mean hints or range errors, and chained
workloads start exactly like hand-started ones."""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import ms, seconds
from repro.workloads import (
    WORKLOADS,
    create_workload,
    get_workload_spec,
    workload_names,
)


# ----------------------------------------------------------------------
# auditing
# ----------------------------------------------------------------------
def test_registry_covers_the_legacy_spawners():
    names = workload_names()
    for expected in ("background", "incast", "qp-churn", "read-blaster",
                     "cache-thrash", "rubis", "openloop", "zipf", "replay",
                     "float"):
        assert expected in names
    for spec in WORKLOADS.values():
        assert spec.params, spec.name
        assert set(spec.required) <= set(spec.params), spec.name


def test_unknown_workload_name_suggests():
    with pytest.raises(KeyError, match="rubis"):
        get_workload_spec("rubiss")
    with pytest.raises(KeyError, match="registered"):
        get_workload_spec("nonsense")


def test_unknown_keyword_suggests():
    sim = build_cluster(SimConfig(num_backends=2))
    with pytest.raises(TypeError, match="threads"):
        create_workload("background", sim, node=0, thread=4)
    with pytest.raises(TypeError, match="missing required"):
        create_workload("background", sim, node=0)
    with pytest.raises(TypeError, match="dispatcher"):
        create_workload("rubis", sim)


def test_node_valued_params_accept_indices():
    sim = build_cluster(SimConfig(num_backends=2))
    tasks = create_workload("background", sim, node=1, threads=2)
    assert tasks and all(t.node is sim.backends[1] for t in tasks)
    for bad in (-1, True, 2, 5):
        with pytest.raises(ValueError, match=r"node .*\[0, 2\)"):
            create_workload("background", sim, node=bad, threads=1)
    with pytest.raises(ValueError, match=r"sources .*\[0, 2\)"):
        create_workload("incast", sim, target=0, sources=[1, -1])
    with pytest.raises(ValueError, match=r"target .*\[0, 2\)"):
        create_workload("qp-churn", sim, src=0, target=False)


def test_builder_workload_chain_validates_eagerly():
    from repro.api import ClusterBuilder

    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises(TypeError, match="num_clients"):
        builder.workload("rubis", num_client=4)
    with pytest.raises(KeyError):
        builder.workload("rubiss")
    cluster = (builder
               .scheme("rdma-sync")
               .workload("rubis", num_clients=4, think_time=ms(10))
               .workload("background", node=0, threads=2)
               .build())
    cluster.run(until=seconds(1) // 2)
    assert len(cluster.workloads) == 2
    assert cluster.dispatcher.stats.count() > 0


def test_builder_workload_matches_manual_start():
    """Chaining .workload('rubis') == building then starting by hand."""
    from repro.api import ClusterBuilder
    from repro.workloads import RubisWorkload

    seed = 4242
    chained = (ClusterBuilder(SimConfig(num_backends=2, master_seed=seed))
               .scheme("rdma-sync")
               .workload("rubis", num_clients=6, think_time=ms(8))
               .build())
    chained.run(until=seconds(1))

    manual = (ClusterBuilder(SimConfig(num_backends=2, master_seed=seed))
              .scheme("rdma-sync")
              .build())
    RubisWorkload(manual.sim, manual.dispatcher, num_clients=6,
                  think_time=ms(8)).start()
    manual.run(until=seconds(1))

    assert (chained.dispatcher.stats.count()
            == manual.dispatcher.stats.count() > 0)
    assert (chained.sim.env.processed_events
            == manual.sim.env.processed_events)
