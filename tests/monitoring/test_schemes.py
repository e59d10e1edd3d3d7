"""Behavioural tests for the five monitoring schemes."""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.monitoring.registry import SCHEME_NAMES
from repro.sim.units import ms, us


def spawn_hogs(node, n):
    def hog(k):
        while True:
            yield k.compute(us(1000))

    for i in range(n):
        node.spawn(f"hog{i}", hog)


def poll_once_per_interval(sim, scheme, duration_ms=1000):
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(ms(duration_ms))
    return mon


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_scheme_delivers_load_info(name):
    sim = build_cluster(SimConfig(num_backends=2))
    scheme = create_scheme(name, sim, interval=ms(50))
    mon = FrontendMonitor(scheme)
    delivered = []
    mon.observers.append(lambda i, info: delivered.append((i, info)))
    mon.start()
    sim.run(ms(500))
    # Observers see every report in delivery order; ``latest`` holds the
    # freshest one per back-end.
    assert [i for i, _ in delivered] == [0, 1] * mon.polls
    assert mon.latest == dict(delivered[-2:])
    for i in range(2):
        info = mon.latest.get(i)
        assert info is not None, f"{name} produced no report for backend {i}"
        assert info.backend == sim.backends[i].name
        assert info.nr_threads >= 2  # at least the ksoftirqd threads
        assert info.received_at > 0


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_scheme_records_latencies(name):
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme(name, sim, interval=ms(20))
    lats = []
    scheme.observers.append(lambda r: lats.append(r.latency))
    poll_once_per_interval(sim, scheme, 500)
    assert len(lats) >= 10
    assert all(lat > 0 for lat in lats)


def test_unknown_scheme_rejected():
    sim = build_cluster(SimConfig(num_backends=1))
    with pytest.raises(ValueError, match="unknown scheme"):
        create_scheme("carrier-pigeon", sim)


def test_double_deploy_rejected():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-sync", sim)
    with pytest.raises(RuntimeError):
        scheme.deploy()


def test_invalid_interval_rejected():
    sim = build_cluster(SimConfig(num_backends=1))
    with pytest.raises(ValueError):
        create_scheme("rdma-sync", sim, interval=0)


def test_backend_thread_counts():
    """The paper's table: 2 / 1 / 1 / 0 / 0 back-end threads."""
    expected = {
        "socket-async": 2,
        "socket-sync": 1,
        "rdma-async": 1,
        "rdma-sync": 0,
        "e-rdma-sync": 0,
    }
    for name, count in expected.items():
        sim = build_cluster(SimConfig(num_backends=1))
        be = sim.backends[0]
        before = be.sched.nr_threads()
        create_scheme(name, sim, interval=ms(50))
        assert be.sched.nr_threads() - before == count, name


def test_rdma_schemes_are_one_sided_flags():
    sim = build_cluster(SimConfig(num_backends=1))
    for name in SCHEME_NAMES:
        scheme = create_scheme(name, sim, interval=ms(50), deploy=False)
        assert scheme.one_sided == name.startswith(("rdma", "e-rdma")), name


def test_rdma_sync_latency_flat_under_load():
    """The headline Fig 3 property at scheme level."""
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-sync", sim, interval=ms(10))
    lats = []
    scheme.observers.append(lambda r: lats.append(r.latency))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(ms(500))
    idle_avg = sum(lats) / len(lats)
    spawn_hogs(sim.backends[0], 16)
    n_before = len(lats)
    sim.run(ms(1500))
    loaded = lats[n_before:]
    loaded_avg = sum(loaded) / len(loaded)
    assert abs(loaded_avg - idle_avg) < us(5), (idle_avg, loaded_avg)


def test_socket_sync_latency_grows_under_load():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("socket-sync", sim, interval=ms(10))
    lats = []
    scheme.observers.append(lambda r: lats.append(r.latency))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(ms(500))
    idle_avg = sum(lats) / len(lats)
    spawn_hogs(sim.backends[0], 32)
    n_before = len(lats)
    sim.run(ms(3000))
    loaded = lats[n_before:]
    loaded_avg = sum(loaded) / len(loaded)
    # /proc scan over 32 extra tasks alone adds ~1 ms.
    assert loaded_avg > idle_avg + us(500), (idle_avg, loaded_avg)


def test_async_schemes_report_stale_data():
    """Async buffer contents are up to one interval old."""
    sim = build_cluster(SimConfig(num_backends=1))
    interval = ms(80)
    scheme = create_scheme("rdma-async", sim, interval=interval)
    mon = FrontendMonitor(scheme, interval=ms(20))
    stale = []
    mon.observers.append(lambda i, info: stale.append(info.staleness))
    mon.start()
    sim.run(ms(2000))
    stale = stale[5:]
    assert max(stale) > ms(40)
    assert all(s < ms(200) for s in stale)


def test_rdma_sync_reports_fresh_data():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-sync", sim, interval=ms(20))
    mon = FrontendMonitor(scheme)
    stale = []
    mon.observers.append(lambda i, info: stale.append(info.staleness))
    mon.start()
    sim.run(ms(1000))
    assert all(s < us(50) for s in stale)


def test_e_rdma_sync_reports_irq_detail():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("e-rdma-sync", sim, interval=ms(20))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(ms(500))
    info = mon.latest[0]
    assert info.irq_pending is not None and len(info.irq_pending) == 2
    assert info.irq_handled is not None


def test_plain_schemes_omit_irq_detail():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-sync", sim, interval=ms(20))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(ms(500))
    assert mon.latest[0].irq_pending is None


def test_with_irq_detail_flag_enables_detail_everywhere():
    for name in ["socket-async", "socket-sync", "rdma-async"]:
        sim = build_cluster(SimConfig(num_backends=1))
        scheme = create_scheme(name, sim, interval=ms(20), with_irq_detail=True)
        mon = FrontendMonitor(scheme)
        mon.start()
        sim.run(ms(800))
        info = mon.latest.get(0)
        assert info is not None and info.irq_pending is not None, name


def test_query_all_returns_every_backend():
    sim = build_cluster(SimConfig(num_backends=3))
    scheme = create_scheme("rdma-sync", sim, interval=ms(50))
    got = []

    def body(k):
        infos = yield from scheme.query_all(k)
        got.append(infos)

    sim.frontend.spawn("qa", body)
    sim.run(ms(100))
    assert sorted(got[0]) == [0, 1, 2]


def test_monitor_observer_hook():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-sync", sim, interval=ms(25))
    seen = []
    mon = FrontendMonitor(scheme)
    mon.observers.append(lambda i, info: seen.append((i, info.collected_at)))
    mon.start()
    sim.run(ms(300))
    assert len(seen) >= 5
    assert all(i == 0 for i, _ in seen)


def test_monitor_stop_halts_polling():
    sim = build_cluster(SimConfig(num_backends=1))
    scheme = create_scheme("rdma-sync", sim, interval=ms(20))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(ms(300))
    mon.stop()
    polls = mon.polls
    sim.run(ms(600))
    assert mon.polls <= polls + 1


def test_scheme_stop_halts_backend_threads():
    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    scheme = create_scheme("rdma-async", sim, interval=ms(20))
    sim.run(ms(200))
    base = be.sched.nr_threads()
    scheme.stop()
    sim.run(ms(500))
    assert be.sched.nr_threads() == base - 1  # calc thread exited
