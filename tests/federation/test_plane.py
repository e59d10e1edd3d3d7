"""End-to-end federation plane: coverage, staleness, quarantine, spans."""

import pytest

from repro.config import SimConfig
from repro.faults import FaultPlane, parse_schedule
from repro.federation import deploy_federation
from repro.hw.cluster import build_cluster
from repro.sim.units import ms


def _sim(n=8, interval=ms(5), tracing=False, schedule=None):
    cfg = SimConfig(num_backends=n)
    cfg.federation.enabled = True
    cfg.federation.leaf_interval = interval
    cfg.federation.root_interval = interval
    if tracing:
        cfg.tracing.enabled = True
    sim = build_cluster(cfg)
    if schedule is not None:
        FaultPlane(sim, parse_schedule(schedule)).install()
    return sim


def test_root_view_covers_every_backend():
    sim = _sim()
    fed = deploy_federation(sim)
    sim.run(ms(60))
    assert sorted(fed.root.latest) == list(range(8))
    assert fed.root.epoch > 5
    assert fed.root.read_failures == 0
    assert all(leaf.epoch > 5 for leaf in fed.leaves)
    assert all(leaf.published == leaf.epoch for leaf in fed.leaves)
    # Leaves poll in lockstep periods: the merged view never holds shard
    # epochs more than one round apart.
    assert fed.root.max_epoch_lag() <= 1


def test_staleness_accumulates_across_both_hops():
    sim = _sim(interval=ms(5))
    fed = deploy_federation(sim)
    sim.run(ms(100))
    # The root's merged view re-stamps received_at at its read instant:
    # apparent staleness includes the leaf poll lag AND the snapshot age,
    # so it sits near one leaf period — far above a leaf round (~tens of
    # µs) — yet stays bounded by about two periods.
    ages = [info.staleness for info in fed.root.latest.values()]
    assert max(ages) < 2 * ms(5) + ms(1)
    assert max(ages) > ms(1)
    # The leaf's own view only carries the first hop.
    leaf_ages = [info.staleness
                 for leaf in fed.leaves for info in leaf.latest.values()]
    assert max(leaf_ages) < ms(1)


def test_crash_quarantines_rebalances_and_recovers():
    sim = _sim(schedule="at 40ms crash backend0\nat 120ms recover backend0")
    fed = deploy_federation(sim)  # auto-subscribes to sim.faults

    sim.run(ms(35))
    assert sorted(fed.root.latest) == list(range(8))
    gen0 = fed.topology.generation

    sim.run(ms(100))  # crash applied at 40ms
    assert fed.topology.quarantined == {0}
    assert fed.topology.generation == gen0 + 1
    assert 0 not in fed.root.latest  # dropped from the serving view
    assert sorted(fed.root.latest) == list(range(1, 8))
    # The survivors were re-split evenly over the shards.
    sizes = [len(fed.topology.members(j))
             for j in range(fed.topology.num_shards)]
    assert sum(sizes) == 7 and max(sizes) - min(sizes) <= 1

    sim.run(ms(200))  # recover applied at 120ms
    assert fed.topology.quarantined == set()
    assert fed.topology.generation == gen0 + 2
    assert sorted(fed.root.latest) == list(range(8))


def test_rebalance_disabled_for_schemes_with_backend_agents():
    """Two-sided / push schemes pin the static assignment: their leaves
    deploy per-member state, so members must not migrate between shards."""
    sim = _sim()
    fed = deploy_federation(sim, scheme_name="socket-sync")
    assert fed.topology.rebalance_on_quarantine is False
    for leaf in fed.leaves:
        shard = fed.topology.static_assignment[leaf.shard]
        assert leaf.scheme.backends == [sim.backends[g] for g in shard]
        assert leaf.members() == shard
    sim.run(ms(30))
    assert sorted(fed.root.latest) == list(range(8))


def test_federation_emits_spans():
    sim = _sim(tracing=True)
    fed = deploy_federation(sim)
    sim.run(ms(30))
    spans = sim.spans.by_component("federation")
    names = {s.name for s in spans}
    assert "fed.aggregate" in names
    assert any(name.startswith("fed.leaf:") for name in names)
    assert fed.root.epoch > 0


def test_deploy_rejects_unknown_scheme():
    sim = _sim()
    with pytest.raises(ValueError):
        deploy_federation(sim, scheme_name="no-such-scheme")
