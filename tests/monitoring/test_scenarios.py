"""Scenario tests: end-to-end situations the paper's system must handle."""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.sim.units import ms, seconds, us
from repro.workloads import create_workload


def test_interrupt_storm_visible_only_to_extended_scheme():
    """A node hammered by network interrupts looks idle on CPU metrics;
    only e-RDMA-Sync's irq_pressure exposes it (the paper's e-scheme
    motivation)."""
    sim = build_cluster(SimConfig(num_backends=2))
    victim = sim.backends[0]
    # Pure communication load: little task CPU, lots of interrupts.
    create_workload("background", sim, node=victim, threads=16,
                    comm_fraction=1.0, message_interval=ms(2), burst=12)
    extended = create_scheme("e-rdma-sync", sim, interval=ms(10))
    mon = FrontendMonitor(extended)
    reports = []
    mon.observers.append(lambda i, info: reports.append((i, info)))
    mon.start()
    sim.run(seconds(3))
    infos = [info for i, info in reports if i == 0]
    # Interrupt pressure shows up in a solid fraction of samples — a
    # signal the plain CPU metrics do not carry at all.
    pressured = sum(1 for info in infos if info.irq_pressure > 0)
    assert pressured > len(infos) * 0.05, (pressured, len(infos))
    assert max(info.irq_pressure for info in infos) >= 2


def test_burst_detection_latency_fresh_vs_stale():
    """How quickly does the cached view notice a load burst?"""
    detection = {}
    for name in ("rdma-sync", "rdma-async"):
        sim = build_cluster(SimConfig(num_backends=1))
        be = sim.backends[0]
        scheme = create_scheme(name, sim, interval=ms(100))
        mon = FrontendMonitor(scheme, interval=ms(10))
        mon.start()
        sim.run(seconds(1))
        burst_time = sim.env.now

        def hog(k):
            while True:
                yield k.compute(us(1000))

        for i in range(8):
            be.spawn(f"hog{i}", hog)
        detected = None
        t = burst_time
        while detected is None and t < burst_time + seconds(2):
            t += ms(5)
            sim.run(t)
            info = mon.latest.get(0)
            if info is not None and info.runq_load > 3.0:
                detected = sim.env.now
        assert detected is not None, name
        detection[name] = detected - burst_time
    # The synchronous scheme sees the burst sooner than the
    # 100 ms-stale asynchronous buffer.
    assert detection["rdma-sync"] < detection["rdma-async"], detection


def test_monitoring_survives_backend_task_churn():
    """Thousands of short-lived tasks must not break any scheme."""
    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    schemes = [create_scheme(n, sim, interval=ms(25))
               for n in ("socket-sync", "rdma-sync")]
    monitors = [FrontendMonitor(s, name=f"m{i}") for i, s in enumerate(schemes)]
    for m in monitors:
        m.start()

    def churner(k):
        seq = [0]

        def transient(kk):
            yield kk.compute(us(200))

        while True:
            seq[0] += 1
            be.spawn(f"short{seq[0]}", transient)
            yield k.sleep(ms(2))

    be.spawn("churner", churner)
    sim.run(seconds(3))
    for m in monitors:
        assert m.polls > 50
        info = m.latest.get(0)
        assert info is not None and info.nr_threads >= 2


def test_hung_node_stalls_socket_monitoring_but_not_rdma():
    """A hung kernel deadlocks the socket poll loop (its reply will never
    come) while RDMA polling continues — the robustness argument of §4
    taken to its limit."""
    from repro.sim.units import seconds as secs

    sim = build_cluster(SimConfig(num_backends=2))
    scheme = create_scheme("socket-sync", sim, interval=ms(20))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(secs(1))
    polls_before = mon.polls
    sim.backends[0].fail("hung")
    sim.run(secs(3))
    assert mon.polls <= polls_before + 2  # stuck waiting on the dead reply

    sim2 = build_cluster(SimConfig(num_backends=2))
    scheme2 = create_scheme("rdma-sync", sim2, interval=ms(20))
    mon2 = FrontendMonitor(scheme2)
    mon2.start()
    sim2.run(secs(1))
    p = mon2.polls
    sim2.backends[0].fail("hung")
    sim2.run(secs(3))
    assert mon2.polls > p + 20  # still polling; data simply freezes


def test_all_schemes_agree_on_quiet_cluster():
    """On an idle cluster every scheme reports the same picture."""
    sim = build_cluster(SimConfig(num_backends=1))
    monitors = {}
    for name in ("socket-async", "socket-sync", "rdma-async", "rdma-sync"):
        scheme = create_scheme(name, sim, interval=ms(50))
        monitors[name] = FrontendMonitor(scheme, name=f"mon-{name}")
        monitors[name].start()
    sim.run(seconds(2))
    loads = {name: m.latest[0] for name, m in monitors.items()}
    base_threads = loads["rdma-sync"].nr_threads
    for name, info in loads.items():
        # Within each other's own monitoring footprint (±4 threads).
        assert abs(info.nr_threads - base_threads) <= 4, (name, info.nr_threads)
        assert info.runq_load < 1.5, (name, info.runq_load)
