"""Membership churn vs the federated monitoring fabric.

The elastic scaler (and the §7 reconfiguration manager) change the
serving set *mid-run* through the shard topology's quarantine/release
machinery. These tests pin the contract: a membership change mid-epoch
re-splits the shards (generation bump), leaves stop polling parked
back-ends, the root keeps merging without interruption, and pool
management over a federated scheme survives the churn.
"""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import create_scheme
from repro.server.reconfig import ReconfigurationManager
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def _federated_scaled(num_backends=6, initial_active=3, **scaler_kw):
    cfg = SimConfig(num_backends=num_backends)
    return (ClusterBuilder(cfg)
            .scheme("rdma-sync")
            .with_federation(num_shards=2, leaf_interval=ms(10),
                             root_interval=ms(20))
            .with_elastic_scaler(interval=ms(25),
                                 initial_active=initial_active, **scaler_kw)
            .build())


def test_scaler_parks_reserve_in_the_topology():
    cluster = _federated_scaled()
    topo = cluster.federation.topology
    assert set(cluster.scaler.parked) == {3, 4, 5}
    assert topo.quarantined == {3, 4, 5}
    assert topo.active_backends() == [0, 1, 2]
    # The initial parking was one rebalance, not one per back-end.
    assert topo.generation == 1


def test_scale_up_mid_epoch_rebalances_and_extends_the_root_view():
    cluster = _federated_scaled(high_water=0.4, low_water=0.02, up_after=2)
    wl = RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=64,
                       think_time=ms(6))
    wl.start()
    cluster.run(until=seconds(3))
    scaler = cluster.scaler
    root = cluster.federation.root
    topo = cluster.federation.topology
    ups = [e for e in scaler.events if e.direction == "up"]
    assert ups, scaler.mean_load
    # Every move re-split the shards.
    assert topo.generation == 1 + len(scaler.events)
    assert set(topo.active_backends()) == set(scaler.active)
    # The root kept merging through the change and now covers the
    # released back-ends, with no parked stragglers beyond the epoch
    # in which they were parked.
    assert root.epoch > 0
    covered = set(root.latest)
    assert set(scaler.active) <= covered


def test_membership_change_does_not_break_shard_snapshots():
    """Quarantine/release mid-epoch: leaves and root never see a torn
    assignment (the rebalance bumps the generation atomically)."""
    # Pool pinned (min == max == all): the only churn is the test's own.
    cluster = _federated_scaled(num_backends=4, initial_active=4,
                                min_active=4)
    wl = RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=16,
                       think_time=ms(8))
    wl.start()
    topo = cluster.federation.topology
    root = cluster.federation.root
    sim = cluster.sim

    churn_log = []

    def churn(k):
        # Park and release a back-end in the middle of leaf/root epochs.
        yield k.sleep(ms(505))
        topo.quarantine(2)
        churn_log.append(("park", root.epoch))
        yield k.sleep(ms(503))
        topo.release(2)
        churn_log.append(("release", root.epoch))

    sim.frontend.spawn("churn", churn)
    cluster.run(until=seconds(2))

    assert topo.generation >= 2
    assert topo.active_backends() == [0, 1, 2, 3]
    # The root merged through both transitions.
    assert root.epoch > churn_log[-1][1]
    assert set(root.latest) == {0, 1, 2, 3}
    # Shard membership is a partition again (no loss, no duplication).
    members = [b for s in range(topo.num_shards) for b in topo.members(s)]
    assert sorted(members) == [0, 1, 2, 3]


def test_reconfiguration_manager_survives_federated_quarantine():
    """Pool management over a federated scheme, with quarantine churn."""
    sim = build_cluster(SimConfig(num_backends=4))
    scheme = create_scheme("rdma-sync", sim, interval=ms(25))
    manager = ReconfigurationManager(
        scheme, pools={"web": [0, 1], "batch": [2, 3]},
        high_water=0.5, low_water=0.3)

    from repro.federation import deploy_federation

    federation = deploy_federation(sim, scheme_name="rdma-sync")
    topo = federation.topology

    def churn(k):
        yield k.sleep(ms(300))
        topo.quarantine(3)
        yield k.sleep(ms(300))
        topo.release(3)

    sim.frontend.spawn("churn", churn)
    sim.run(seconds(2))

    # The manager's pools stayed a partition of the back-ends and its
    # evaluation loop kept running through both topology generations.
    pooled = sorted(b for pool in manager.pools.values() for b in pool)
    assert pooled == [0, 1, 2, 3]
    assert topo.generation >= 2
    assert federation.root.epoch > 0
    assert set(federation.root.latest) == {0, 1, 2, 3}
