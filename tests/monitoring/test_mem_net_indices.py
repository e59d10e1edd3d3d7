"""Tests for the memory and network load indices (WebSphere's full set)."""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.kernel.loadavg import MEM_TOTAL_BYTES, MEM_USED_BYTES
from repro.monitoring import FrontendMonitor, create_scheme
from repro.monitoring.loadinfo import LoadCalculator
from repro.sim.resources import Store
from repro.sim.units import ms, seconds


def test_snapshot_reports_memory(cluster1):
    be = cluster1.backends[0]
    snap = be.loadacct.snapshot()
    assert snap[MEM_TOTAL_BYTES] == 1 << 30
    base = snap[MEM_USED_BYTES]

    def idle_task(k):
        yield k.sleep(seconds(10))

    be.spawn("fat", idle_task, rss_bytes=64 * 1024 * 1024)
    snap = be.loadacct.snapshot()
    assert snap[MEM_USED_BYTES] == base + 64 * 1024 * 1024


def test_kthreads_carry_no_rss(cluster1):
    be = cluster1.backends[0]
    # Only ksoftirqd threads exist; they are kthreads with zero rss.
    assert be.sched.rss_total() == 0


def _record(time, mem_used, mem_total, net_rx, net_tx):
    """A one-CPU, gauge-less ``kern.load`` record (layout in
    repro.kernel.loadavg)."""
    return (time, 0, 0, 1, 0, 0.0, 0.0, 0.0, 0.0,
            mem_used, mem_total, net_rx, net_tx,
            1, 0, 0, 0, 0)


def test_calculator_mem_util():
    calc = LoadCalculator("b")
    info = calc.compute(_record(1000, mem_used=256, mem_total=1024, net_rx=0, net_tx=0))
    assert info.mem_util == 0.25


def test_calculator_net_rate_from_deltas():
    calc = LoadCalculator("b")
    info = calc.compute(_record(0, mem_used=0, mem_total=1, net_rx=0, net_tx=0))
    assert info.net_rate_mbps == 0.0  # no baseline yet
    # 1 MB in 10 ms -> 100 MB/s
    info = calc.compute(_record(10_000_000, mem_used=0, mem_total=1,
                                net_rx=500_000, net_tx=500_000))
    assert abs(info.net_rate_mbps - 100.0) < 1e-6


def test_schemes_deliver_net_rate_under_traffic():
    sim = build_cluster(SimConfig(num_backends=2))
    be = sim.backends[0]
    peer = sim.backends[1]
    store = Store(sim.env, name="sink")

    def blaster(k):
        while True:
            yield from peer.netstack.send(k, be, store, "x" * 10, 8192)
            yield k.sleep(ms(1))

    peer.spawn("blaster", blaster)
    scheme = create_scheme("rdma-sync", sim, interval=ms(50))
    mon = FrontendMonitor(scheme)
    mon.start()
    sim.run(seconds(2))
    info = mon.latest[0]
    assert info.net_rate_mbps > 1.0, info.net_rate_mbps
    # The blaster's own node reports its TX as network load too.
    assert mon.latest[1].net_rate_mbps > 1.0