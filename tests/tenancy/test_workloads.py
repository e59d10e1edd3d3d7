"""The attack workloads: registration, bounds, stop_after, validation."""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import MICROSECOND, ms
from repro.workloads import create_workload


def _cluster(enabled=True, **knobs):
    cfg = SimConfig(num_backends=2, master_seed=7)
    cfg.tenancy.enabled = enabled
    for key, value in knobs.items():
        setattr(cfg.tenancy, key, value)
    return build_cluster(cfg)


def test_attacks_register_their_tenants_once():
    sim = _cluster()
    src, dst = sim.clients, sim.backends[0]
    create_workload("qp-churn", sim, src=src, target=dst)
    create_workload("read-blaster", sim, src=src, target=dst)
    create_workload("cache-thrash", sim, src=src, target=dst, regions=8)
    reg = sim.tenancy.registry
    names = {t.name for t in reg}
    assert {"qp-flood", "read-blast", "icm-thrash"} <= names
    # All verbs from the shared source node are attributed to whichever
    # attack bound it first; a second spawn with the same label reuses
    # the tenant instead of raising.
    create_workload("read-blaster", sim, src=src, target=dst)
    assert len([t for t in reg if t.name == "read-blast"]) == 1


def test_attacks_degrade_gracefully_without_the_plane():
    sim = _cluster(enabled=False)
    assert sim.tenancy is None
    src, dst = sim.clients, sim.backends[0]
    create_workload("read-blaster", sim, src=src, target=dst)
    create_workload("qp-churn", sim, src=src, target=dst)
    create_workload("cache-thrash", sim, src=src, target=dst, regions=8)
    sim.run(ms(5))  # plain unattributed load; nothing raises


def test_stop_after_freezes_the_blaster():
    sim = _cluster()
    create_workload("read-blaster", sim, src=sim.clients,
                    target=sim.backends[0], stop_after=ms(10))
    sim.run(ms(12))
    tenant = sim.tenancy.registry.by_name("read-blast")
    frozen = tenant.posted_ops
    assert frozen > 0
    sim.run(ms(30))
    assert tenant.posted_ops == frozen


def test_stop_after_drains_the_flood_qps():
    sim = _cluster()
    create_workload("qp-churn", sim, src=sim.clients, target=sim.backends[0],
                    stop_after=ms(10))
    sim.run(ms(20))
    tenant = sim.tenancy.registry.by_name("qp-flood")
    assert tenant.qp_creates > 0
    assert tenant.qps_active == 0  # every held pair destroyed on exit


def test_flood_hold_max_bounds_live_qps():
    sim = _cluster(qp_table_size=1024)
    create_workload("qp-churn", sim, src=sim.clients, target=sim.backends[0],
                    burst=8, hold_max=16, interval=20 * MICROSECOND)
    sim.run(ms(10))
    tenant = sim.tenancy.registry.by_name("qp-flood")
    # Churn, not accumulation: creations far exceed the held window.
    assert tenant.qp_creates > 3 * 16
    assert tenant.qp_destroys > 0
    assert tenant.qps_active <= 16 + 8  # held window + one in-flight burst


def test_flood_backs_off_when_the_table_fills():
    sim = _cluster(qp_table_size=32)
    create_workload("qp-churn", sim, src=sim.clients, target=sim.backends[0],
                    burst=8, hold_max=64)
    sim.run(ms(10))
    tenant = sim.tenancy.registry.by_name("qp-flood")
    assert tenant.qp_denied > 0  # admission pushed back, attack persisted
    assert sim.tenancy.stats()["nics"][sim.clients.nic.name]["qp_count"] <= 32


def test_thrash_walker_overflows_the_cache():
    sim = _cluster(icm_entries=16)
    create_workload("cache-thrash", sim, src=sim.clients,
                    target=sim.backends[0], regions=64,
                    interval=10 * MICROSECOND)
    sim.run(ms(10))
    tenant = sim.tenancy.registry.by_name("icm-thrash")
    assert tenant.icm_misses > tenant.posted_ops // 2
    assert sim.tenancy.stats()["nics"][sim.backends[0].nic.name][
        "icm_evictions"] > 0


def test_spawner_argument_validation():
    sim = _cluster()
    with pytest.raises(ValueError, match="flows"):
        create_workload("read-blaster", sim, src=sim.clients,
                        target=sim.backends[0], flows=0)
    with pytest.raises(ValueError, match="regions"):
        create_workload("cache-thrash", sim, src=sim.clients,
                        target=sim.backends[0], regions=0)

