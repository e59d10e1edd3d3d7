"""Tests for the RDMA-Write-push extension scheme."""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.sim.units import ms, seconds, us


def test_push_scheme_delivers_load_info():
    sim = build_cluster(SimConfig(num_backends=2))
    scheme = create_scheme("rdma-write-push", sim, interval=ms(50))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(seconds(1))
    for i in range(2):
        info = mon.latest.get(i)
        assert info is not None
        assert info.backend == sim.backends[i].name
        assert info.collected_at > 0


def test_push_query_latency_is_local():
    """Decision-time queries never touch the wire."""
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-write-push", sim, interval=ms(20))
    lats = []
    scheme.observers.append(lambda r: lats.append(r.latency))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(seconds(1))
    assert max(lats) < us(10), max(lats)


def test_push_staleness_bounded_by_interval():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-write-push", sim, interval=ms(40))
    mon = FrontendMonitor(scheme, interval=ms(10))
    stale = []
    mon.observers.append(lambda i, info: stale.append(info.staleness))
    mon.start()
    sim.run(seconds(2))
    stale = stale[5:]
    # Data ages up to ~one push interval (plus scheduling slop).
    assert max(stale) > ms(20)
    assert max(stale) < ms(150)


def test_push_runs_one_backend_thread():
    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    before = be.sched.nr_threads()
    create_scheme("rdma-write-push", sim, interval=ms(50))
    assert be.sched.nr_threads() - before == 1


def test_push_perturbs_backend_under_fine_granularity():
    """The design-space point: push keeps the calc thread's cost."""
    from repro.workloads.floatapp import FloatApp

    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    create_scheme("rdma-write-push", sim, interval=ms(1))
    app = FloatApp(be, total_compute=ms(200))
    app.start()
    sim.run(seconds(3))
    assert app.finished
    assert app.normalized_delay() > 1.01  # calc thread steals CPU


def test_push_writes_land_without_frontend_cpu():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-write-push", sim, interval=ms(10))
    sim.run(seconds(2))
    fe = sim.frontend
    fe.sched.sync()
    busy = sum(fe.sched.jiffies(i)["user"] + fe.sched.jiffies(i)["sys"]
               for i in range(fe.num_cpus))
    # The front end ran no polling task; only boot-time noise.
    assert busy < ms(5), busy
