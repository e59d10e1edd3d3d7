"""Three-level federation: region tier correctness and scaling shape.

The region tier must be invisible to consumers of the root's merged
view (same coverage, same FrontendMonitor-cache duck type) while
changing the *shape* of the fabric: every fan-out near N^(1/3), and
staleness accumulating across all three hops.
"""

import pytest

from repro.config import SimConfig
from repro.federation import (
    RegionSnapshot,
    auto_region_count,
    auto_shard_count_3level,
    deploy_federation,
)
from repro.hw.cluster import build_cluster
from repro.sim.units import ms


def _sim(n=64, interval=ms(2), levels=3, num_shards=0, num_regions=0):
    cfg = SimConfig(num_backends=n)
    cfg.federation.enabled = True
    cfg.federation.levels = levels
    cfg.federation.num_shards = num_shards
    cfg.federation.num_regions = num_regions
    cfg.federation.leaf_interval = interval
    cfg.federation.root_interval = interval
    return build_cluster(cfg)


# ----------------------------------------------------------------------
# sizing helpers
# ----------------------------------------------------------------------

def test_auto_shard_count_3level_balances_cube_root_fanouts():
    # Exact cubes split exactly: no float-fuzz off-by-one.
    assert auto_shard_count_3level(4096) == 256
    assert auto_shard_count_3level(64) == 16
    assert auto_shard_count_3level(8) == 4
    assert auto_shard_count_3level(1) == 1
    # Region tier mirrors the sqrt split one level up.
    assert auto_region_count(256) == 16
    assert auto_region_count(16) == 4


def test_every_fanout_near_cube_root():
    sim = _sim(n=64)
    fed = deploy_federation(sim)
    assert fed.topology.num_shards == 16
    assert len(fed.regions) == 4
    # members per leaf, leaves per region, regions under the root
    assert all(len(s) == 4 for s in fed.topology.static_assignment)
    assert all(len(r.leaves) == 4 for r in fed.regions)
    assert len(fed.root._sources) == 4


# ----------------------------------------------------------------------
# end-to-end correctness
# ----------------------------------------------------------------------

def test_root_view_covers_every_backend_through_regions():
    sim = _sim(n=64)
    fed = deploy_federation(sim)
    sim.run(ms(30))
    assert sorted(fed.root.latest) == list(range(64))
    assert fed.root.read_failures == 0
    assert all(r.read_failures == 0 for r in fed.regions)
    assert all(r.epoch > 5 for r in fed.regions)
    assert all(r.published == r.epoch for r in fed.regions)


def test_staleness_accumulates_across_three_hops():
    sim = _sim(n=64, interval=ms(2))
    fed = deploy_federation(sim)
    sim.run(ms(40))
    # Each hop adds up to one period of snapshot age: apparent root
    # staleness sits above one period (leaf lag alone) and below about
    # three periods plus slack.
    ages = [info.staleness for info in fed.root.latest.values()]
    assert max(ages) > ms(1)
    assert max(ages) < 3 * ms(2) + ms(1)
    # The leaf's own view still carries only the first hop.
    leaf_ages = [info.staleness
                 for leaf in fed.leaves for info in leaf.latest.values()]
    assert max(leaf_ages) < ms(1)


def test_every_tier_round_fits_the_period():
    sim = _sim(n=64, interval=ms(2))
    fed = deploy_federation(sim)
    sim.run(ms(30))
    period = ms(2)
    assert max(max(leaf.rounds) for leaf in fed.leaves) < period
    assert max(max(r.rounds) for r in fed.regions) < period
    assert max(fed.root.rounds) < period


def test_two_level_deploy_unchanged_by_default():
    sim = _sim(n=64, levels=2)
    fed = deploy_federation(sim)
    assert fed.regions == [] and fed.region_nodes == []
    assert fed.root.regions is None
    # sqrt split, not the cube-root split
    assert fed.topology.num_shards == 8


def test_explicit_region_knobs_and_validation():
    sim = _sim(n=64, num_shards=8, num_regions=2)
    fed = deploy_federation(sim)
    assert fed.topology.num_shards == 8
    assert len(fed.regions) == 2
    assert [len(r.leaves) for r in fed.regions] == [4, 4]

    sim = _sim(n=8, levels=4)
    with pytest.raises(ValueError, match="levels"):
        deploy_federation(sim)

    sim = _sim(n=8, num_shards=2, num_regions=3)
    with pytest.raises(ValueError, match="num_regions"):
        deploy_federation(sim)


def test_stop_halts_all_three_tiers():
    sim = _sim(n=64)
    fed = deploy_federation(sim)
    sim.run(ms(10))
    fed.stop()
    epochs = ([leaf.epoch for leaf in fed.leaves]
              + [r.epoch for r in fed.regions] + [fed.root.epoch])
    sim.run(ms(20))
    assert ([leaf.epoch for leaf in fed.leaves]
            + [r.epoch for r in fed.regions] + [fed.root.epoch]) == epochs


# ----------------------------------------------------------------------
# snapshot format + determinism
# ----------------------------------------------------------------------

def test_region_snapshot_roundtrip():
    snap = RegionSnapshot(
        region=3, epoch=7, published_at=123456,
        shards=((0, 1, 0, 100, ()), (1, 2, 0, 110, ())),
    )
    packed = snap.pack()
    # Wire format is nested tuples of immutables (identity deep-copy).
    assert isinstance(packed, tuple)
    back = RegionSnapshot.unpack(packed)
    assert back == snap


def test_three_level_same_seed_determinism():
    def fingerprint():
        sim = _sim(n=64)
        fed = deploy_federation(sim)
        sim.run(ms(20))
        return (
            sim.env.processed_events,
            tuple(sorted((g, i.collected_at, i.received_at, i.cpu_util)
                         for g, i in fed.root.latest.items())),
            tuple(r.epoch for r in fed.regions),
            tuple(sorted(fed.root.shard_epochs.items())),
        )

    assert fingerprint() == fingerprint()


def test_nonpositive_root_and_region_intervals_rejected():
    sim = _sim(n=8)
    sim.cfg.federation.region_interval = -1
    with pytest.raises(ValueError, match="region interval"):
        deploy_federation(sim)
    sim = _sim(n=8)
    sim.cfg.federation.root_interval = -1
    with pytest.raises(ValueError, match="root interval"):
        deploy_federation(sim)
