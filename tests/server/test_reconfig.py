"""Tests for the reconfiguration extension (§7 future work)."""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import create_scheme
from repro.monitoring.loadinfo import LoadInfo
from repro.server.loadbalancer import LeastLoadedBalancer
from repro.server.reconfig import PooledBalancer, ReconfigurationManager
from repro.sim.units import ms, seconds, us


def build(scheme_name="rdma-sync", interval=ms(50), num_backends=4, **kw):
    sim = build_cluster(SimConfig(num_backends=num_backends))
    scheme = create_scheme(scheme_name, sim, interval=interval)
    manager = ReconfigurationManager(
        scheme, pools={"web": [0, 1], "batch": [2, 3]}, **kw
    )
    return sim, scheme, manager


def test_pool_validation():
    sim = build_cluster(SimConfig(num_backends=2))
    scheme = create_scheme("rdma-sync", sim, interval=ms(50))
    with pytest.raises(ValueError):
        ReconfigurationManager(scheme, pools={"a": []})
    with pytest.raises(ValueError):
        ReconfigurationManager(scheme, pools={"a": [0], "b": [0]})
    with pytest.raises(ValueError):
        ReconfigurationManager(scheme, pools={"a": [0], "b": [1]},
                               high_water=0.2, low_water=0.5)


def test_no_migration_when_balanced():
    sim, _, manager = build()
    sim.run(seconds(2))
    assert manager.events == []
    assert manager.pool_of(0) == "web"
    assert manager.pool_of(2) == "batch"


def test_migration_on_sustained_imbalance():
    sim, _, manager = build(high_water=0.6, low_water=0.4)

    def hog(k):
        while True:
            yield k.compute(us(1000))

    # Saturate the web pool only.
    for node in (sim.backends[0], sim.backends[1]):
        for i in range(6):
            node.spawn(f"hog:{node.name}:{i}", hog)
    sim.run(seconds(3))
    assert manager.events, "no reconfiguration happened"
    event = manager.events[0]
    assert event.from_pool == "batch" and event.to_pool == "web"
    assert len(manager.members("web")) == 3
    assert len(manager.members("batch")) == 1


def test_min_pool_size_respected():
    sim, _, manager = build(high_water=0.5, low_water=0.4, min_pool_size=2)

    def hog(k):
        while True:
            yield k.compute(us(1000))

    for node in (sim.backends[0], sim.backends[1]):
        for i in range(6):
            node.spawn(f"hog:{node.name}:{i}", hog)
    sim.run(seconds(3))
    assert len(manager.members("batch")) >= 2
    assert manager.events == []


def test_cooldown_limits_migration_rate():
    sim, _, manager = build(high_water=0.5, low_water=0.45, cooldown=seconds(10))

    def hog(k):
        while True:
            yield k.compute(us(1000))

    for node in (sim.backends[0], sim.backends[1]):
        for i in range(8):
            node.spawn(f"hog:{node.name}:{i}", hog)
    sim.run(seconds(4))
    assert len(manager.events) <= 1


def test_reaction_time_scales_with_monitoring_interval():
    """Finer monitoring reacts faster — the paper's motivation for §7."""
    lags = {}
    for interval in (ms(20), ms(500)):
        sim, _, manager = build(interval=interval, high_water=0.6, low_water=0.4)

        def hog(k):
            while True:
                yield k.compute(us(1000))

        sim.run(ms(600))  # settle
        start = sim.env.now
        for node in (sim.backends[0], sim.backends[1]):
            for i in range(6):
                node.spawn(f"hog:{node.name}:{i}", hog)
        sim.run(start + seconds(4))
        assert manager.events, f"no event at interval {interval}"
        lags[interval] = manager.events[0].time - start
    assert lags[ms(20)] < lags[ms(500)]


def test_pooled_balancer_routes_within_pool():
    sim, scheme, manager = build()
    inner = LeastLoadedBalancer(4)
    pooled = PooledBalancer(inner, manager, service_of=lambda r: r and r["svc"])
    loads = {
        i: LoadInfo(backend=f"b{i}", collected_at=0, cpu_util=0.1 * i)
        for i in range(4)
    }
    pooled.set_request({"svc": "batch"})
    assert pooled.choose(loads) in (2, 3)
    pooled.set_request({"svc": "web"})
    assert pooled.choose(loads) in (0, 1)


def test_pooled_balancer_follows_migration():
    sim, scheme, manager = build()
    inner = LeastLoadedBalancer(4)
    pooled = PooledBalancer(inner, manager, service_of=lambda r: r and r["svc"])
    # Manually migrate backend 2 into web.
    manager.pools["batch"].remove(2)
    manager.pools["web"].append(2)
    loads = {
        i: LoadInfo(backend=f"b{i}", collected_at=0, cpu_util=0.9 if i < 2 else 0.0)
        for i in range(4)
    }
    pooled.set_request({"svc": "web"})
    assert pooled.choose(loads) == 2


def test_pooled_balancer_without_request_falls_back():
    sim, scheme, manager = build()
    inner = LeastLoadedBalancer(4)
    pooled = PooledBalancer(inner, manager, service_of=lambda r: None)
    pooled.set_request(None)
    assert pooled.choose({}) in range(4)


def test_pooled_balancer_repick_honours_exclusion():
    """The dispatcher's health re-pick passes ``exclude``: an excluded
    pool member is never chosen while another member remains, with
    monitoring data or without it (the rotation path)."""
    sim, scheme, manager = build()
    inner = LeastLoadedBalancer(4)
    pooled = PooledBalancer(inner, manager, service_of=lambda r: r and r["svc"])
    pooled.set_request({"svc": "web"})
    # Backend 0 looks idle, so an unfiltered pick would favour it.
    loads = {
        i: LoadInfo(backend=f"b{i}", collected_at=0, cpu_util=0.0 if i == 0 else 0.9)
        for i in range(4)
    }
    assert {pooled.choose(loads, exclude=[0]) for _ in range(50)} == {1}
    assert {pooled.choose({}, exclude=[0]) for _ in range(8)} == {1}
    # Excluding the whole pool falls back to it: a wrong pick beats none.
    assert pooled.choose(loads, exclude=[0, 1]) in (0, 1)
