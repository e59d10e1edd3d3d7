"""End-to-end reconfiguration: two services, a load shift, migration."""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.server.dispatcher import Dispatcher
from repro.server.loadbalancer import LeastLoadedBalancer
from repro.server.reconfig import PooledBalancer, ReconfigurationManager
from repro.server.webserver import BackendServer
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def test_two_services_share_cluster_with_migration():
    sim = build_cluster(SimConfig(num_backends=4))
    servers = [BackendServer(be, sim.rng, workers=12)
               for be in sim.backends]
    for s in servers:
        s.start()
    scheme = create_scheme("rdma-sync", sim, interval=ms(25))
    monitor = FrontendMonitor(scheme)
    monitor.start()
    manager = ReconfigurationManager(
        scheme, pools={"web": [0, 1], "batch": [2, 3]},
        high_water=0.55, low_water=0.45, cooldown=ms(500),
    )
    inner = LeastLoadedBalancer(4, rng=sim.rng.stream("lb"))
    pooled = PooledBalancer(
        inner, manager,
        service_of=lambda r: "web" if (r is not None and r.workload == "rubis") else "batch",
    )
    dispatcher = Dispatcher(sim.frontend, servers, pooled, monitor=monitor)
    dispatcher.start()

    # Only the web service is loaded (heavily).
    wl = RubisWorkload(sim, dispatcher, num_clients=48, think_time=ms(1),
                       burst_length=6)
    wl.start()
    sim.run(seconds(5))

    # The manager moved at least one batch server into the web pool.
    assert manager.events, "no migration happened"
    assert all(e.to_pool == "web" for e in manager.events)
    assert len(manager.members("web")) >= 3
    # Requests were actually served by a migrated backend.
    migrated = manager.events[0].backend
    counts = dispatcher.stats.per_backend_counts()
    assert counts.get(migrated, 0) > 0, counts
    # And the batch pool never went below its minimum.
    assert len(manager.members("batch")) >= 1


def test_pooled_routing_respects_initial_pools():
    sim = build_cluster(SimConfig(num_backends=4))
    servers = [BackendServer(be, sim.rng, workers=8)
               for be in sim.backends]
    for s in servers:
        s.start()
    scheme = create_scheme("rdma-sync", sim, interval=ms(50))
    monitor = FrontendMonitor(scheme)
    monitor.start()
    # Thresholds that can never trigger: pools stay fixed.
    manager = ReconfigurationManager(
        scheme, pools={"web": [0, 1], "batch": [2, 3]},
        high_water=0.99, low_water=0.0,
    )
    inner = LeastLoadedBalancer(4, rng=sim.rng.stream("lb"))
    pooled = PooledBalancer(inner, manager, service_of=lambda r: "web")
    dispatcher = Dispatcher(sim.frontend, servers, pooled, monitor=monitor)
    dispatcher.start()
    wl = RubisWorkload(sim, dispatcher, num_clients=8, think_time=ms(5),
                       burst_length=1)
    wl.start()
    sim.run(seconds(2))
    counts = dispatcher.stats.per_backend_counts()
    assert set(counts) <= {0, 1}, counts
