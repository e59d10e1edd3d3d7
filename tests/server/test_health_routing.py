"""Tests for health-aware request routing (heartbeat + dispatcher)."""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.monitoring.heartbeat import HeartbeatMonitor
from repro.server.dispatcher import Dispatcher
from repro.server.loadbalancer import LeastLoadedBalancer
from repro.server.webserver import BackendServer
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def deploy_with_health(num_backends=2):
    sim = build_cluster(SimConfig(num_backends=num_backends))
    servers = [BackendServer(be, sim.rng, workers=8)
               for be in sim.backends]
    for s in servers:
        s.start()
    scheme = create_scheme("rdma-sync", sim, interval=ms(50))
    monitor = FrontendMonitor(scheme)
    monitor.start()
    health = HeartbeatMonitor(sim, interval=ms(20))
    balancer = LeastLoadedBalancer(num_backends, rng=sim.rng.stream("lb"))
    dispatcher = Dispatcher(sim.frontend, servers, balancer,
                            monitor=monitor, health=health)
    dispatcher.start()
    return sim, servers, dispatcher, health


def test_routing_avoids_crashed_backend():
    sim, servers, dispatcher, health = deploy_with_health()
    wl = RubisWorkload(sim, dispatcher, num_clients=8, think_time=ms(5),
                       burst_length=1)
    wl.start()
    sim.run(seconds(1))
    crash_time = sim.env.now
    sim.backends[0].fail("crashed")
    sim.run(crash_time + seconds(2))
    after = [r for r in dispatcher.stats.completed
             if r.created_at > crash_time + ms(100)]
    assert after, "no requests completed after the crash"
    assert all(r.backend == 1 for r in after), (
        {r.backend for r in after})


def test_routing_avoids_hung_backend():
    sim, servers, dispatcher, health = deploy_with_health()
    wl = RubisWorkload(sim, dispatcher, num_clients=8, think_time=ms(5),
                       burst_length=1)
    wl.start()
    sim.run(seconds(1))
    hang_time = sim.env.now
    sim.backends[1].fail("hung")
    sim.run(hang_time + seconds(2))
    after = [r for r in dispatcher.stats.completed
             if r.created_at > hang_time + ms(200)]
    assert after
    assert all(r.backend == 0 for r in after)


def test_all_backends_unhealthy_still_routes():
    """With no healthy pool the dispatcher routes anyway (best effort)."""
    sim, servers, dispatcher, health = deploy_with_health()
    wl = RubisWorkload(sim, dispatcher, num_clients=2, think_time=ms(5),
                       burst_length=1)
    wl.start()
    sim.run(seconds(1))
    for be in sim.backends:
        be.fail("hung")
    sim.run(sim.env.now + seconds(1))
    # Requests are forwarded (and will stall at the hung servers) — no
    # crash in the dispatcher itself.
    assert dispatcher.forwarded > 0
