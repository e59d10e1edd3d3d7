"""Tenancy x federation x faults: the full noisy-neighbor incident.

One back-end hosts an attacker tenant. The defense loop quarantines the
*tenant* (verb-level sanction + shard rebalance); the fault plane then
crashes the *node* (topology-level quarantine + rebalance); recovery
re-admits the node, and the operator path re-admits the tenant. Both
quarantine mechanisms compose without fighting each other.
"""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms
from repro.workloads import create_workload


def _incident():
    cfg = SimConfig(num_backends=4, master_seed=13)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(1))
           .tenancy(defense=True, defense_interval=ms(5), icm_entries=32)
           .with_federation(num_shards=2, leaf_interval=ms(10),
                            root_interval=ms(10))
           .with_faults("at 60ms crash backend2\nat 120ms recover backend2")
           .build())
    create_workload("read-blaster", app.sim, src=app.sim.backends[2],
                    target=app.sim.backends[0], start_after=ms(10))
    return app


def test_tenant_quarantine_then_node_crash_then_full_recovery():
    app = _incident()
    sim = app.sim
    topo = app.federation.topology
    root = app.federation.root

    # Phase 1 (before the crash): the defense loop catches the tenant.
    app.run(ms(50))
    attacker = sim.tenancy.registry.by_name("read-blast")
    assert attacker.quarantined
    assert attacker.denied_ops > 0
    # Tenant quarantine asked the federation for a shard rebalance.
    assert topo.rebalances >= 1
    gen_after_tenant = topo.generation
    assert topo.quarantined == set()  # node-level set untouched

    # Phase 2: the attacker's host crashes; the fault plane pulls the
    # *node* out of the polled topology and rebalances again.
    app.run(ms(110))
    assert 2 in topo.quarantined
    assert topo.generation > gen_after_tenant
    assert all(2 not in topo.members(s) for s in range(topo.num_shards))
    gen_in_crash = topo.generation

    # Phase 3: recovery re-admits the node and the root's view of it
    # goes fresh again.
    app.run(ms(200))
    assert 2 not in topo.quarantined
    assert topo.generation > gen_in_crash
    assert any(2 in topo.members(s) for s in range(topo.num_shards))
    recover_at = ms(120)
    assert root.latest, "root never completed a round"
    assert 2 in root.latest
    assert root.latest[2].collected_at > recover_at

    # The *tenant* quarantine survived its host's crash/recover cycle —
    # node health and tenant behaviour are independent verdicts.
    assert attacker.quarantined
    denied_mid = attacker.denied_ops
    posted_mid = attacker.posted_ops

    # Phase 4: operator re-admission lets the (still running) attacker
    # post again; nothing re-quarantines the recovered node.
    sim.tenancy.release(attacker)
    app.run(ms(260))
    assert attacker.posted_ops > posted_mid
    assert 2 not in topo.quarantined
    # ... and its renewed flood draws fresh sanctions, not stale state.
    assert attacker.denied_ops >= denied_mid


def test_clean_cluster_keeps_topology_stable():
    cfg = SimConfig(num_backends=4, master_seed=13)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(1))
           .tenancy(defense=True, defense_interval=ms(5))
           .with_federation(num_shards=2)
           .build())
    app.run(ms(100))
    topo = app.federation.topology
    assert topo.rebalances == 0 and topo.generation == 0
    assert app.sim.tenancy.actions == []


def test_tenant_quarantine_keeps_a_static_topology():
    """On a topology without ``rebalance_on_quarantine`` each leaf polls
    only its static shard, so a tenant quarantine must not re-split the
    assignment: a member moved to another shard would have no leaf
    polling it while the topology still routes to it."""
    app = (ClusterBuilder(SimConfig(num_backends=8, master_seed=13))
           .scheme("rdma-sync", interval=ms(1))
           .tenancy(defense=True, defense_interval=ms(5), icm_entries=32)
           .with_federation(num_shards=2, rebalance_on_quarantine=False)
           .with_faults("at 5ms crash backend0")
           .build())
    create_workload("read-blaster", app.sim, src=app.sim.backends[2],
                    target=app.sim.backends[5], start_after=ms(10))
    app.run(ms(80))
    topo = app.federation.topology
    assert app.sim.tenancy.registry.by_name("read-blast").quarantined
    assert topo.quarantined == {0}
    assert topo.assignment == topo.static_assignment
    assert topo.rebalances == 0
    routable = topo.active_backends()
    assert sorted(app.federation.root.latest) == routable
    now = app.sim.env.now
    for g in routable:
        assert now - app.federation.root.latest[g].collected_at < 2 * ms(1), g
