"""Tests for failure injection and the RDMA heartbeat monitor."""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.kernel.loadavg import TICKS
from repro.monitoring.heartbeat import HeartbeatMonitor, NodeHealth
from repro.sim.units import ms, seconds, us


def test_failure_mode_validation(cluster1):
    with pytest.raises(ValueError):
        cluster1.backends[0].fail("on-fire")


def test_crashed_node_drops_packets(cluster2):
    a, b = cluster2.backends
    from repro.sim.resources import Store

    store = Store(cluster2.env, name="rx")
    b.fail("crashed")

    def sender(k):
        yield from a.netstack.send(k, b, store, "lost", 64)

    a.spawn("tx", sender)
    cluster2.run(ms(20))
    assert len(store) == 0
    assert b.nic.kernel_rx_packets == 0


def test_hung_node_freezes_tasks(cluster1):
    be = cluster1.backends[0]
    progress = []

    def worker(k):
        while True:
            yield k.compute(us(500))
            progress.append(k.now)

    be.spawn("worker", worker)
    cluster1.run(ms(50))
    count = len(progress)
    assert count > 0
    be.fail("hung")
    cluster1.run(ms(200))
    assert len(progress) == count  # no progress after the hang


def test_hung_node_still_answers_rdma(cluster1):
    from repro.transport.verbs import AccessFlags, ProtectionDomain, connect_qp

    be = cluster1.backends[0]
    fe = cluster1.frontend
    mr = ProtectionDomain.for_node(be).register(
        be.memory.get("kern.load"), AccessFlags.REMOTE_READ)
    qp, _ = connect_qp(fe, be)
    be.fail("hung")
    got = []

    def reader(k):
        wc = yield from qp.rdma_read(k, mr.rkey, mr.nbytes)
        got.append(wc)

    fe.spawn("reader", reader)
    cluster1.run(cluster1.env.now + ms(10))
    assert got and got[0].ok
    assert got[0].value[TICKS] == be.loadacct.ticks


def test_heartbeat_all_alive(cluster2):
    hb = HeartbeatMonitor(cluster2, interval=ms(20))
    cluster2.run(seconds(1))
    assert hb.state[0] is NodeHealth.ALIVE
    assert hb.state[1] is NodeHealth.ALIVE
    assert hb.transitions == []
    assert hb.probes > 50


def test_heartbeat_detects_crash(cluster2):
    hb = HeartbeatMonitor(cluster2, interval=ms(20))
    cluster2.run(ms(200))
    cluster2.backends[0].fail("crashed")
    cluster2.run(ms(500))
    assert hb.state[0] is NodeHealth.DEAD
    assert hb.state[1] is NodeHealth.ALIVE
    # Detection within interval + timeout of the crash.
    death = next(t for t in hb.transitions if t.state is NodeHealth.DEAD)
    assert death.time - ms(200) < ms(60)


def test_heartbeat_detects_hang(cluster2):
    hb = HeartbeatMonitor(cluster2, interval=ms(20), hung_after=2)
    cluster2.run(ms(200))
    cluster2.backends[1].fail("hung")
    cluster2.run(ms(600))
    assert hb.state[1] is NodeHealth.HUNG
    assert hb.state[0] is NodeHealth.ALIVE


def test_heartbeat_distinguishes_hang_from_crash(cluster2):
    """The diagnostic power sockets don't have: hang ≠ crash."""
    hb = HeartbeatMonitor(cluster2, interval=ms(20), hung_after=2)
    cluster2.run(ms(100))
    cluster2.backends[0].fail("crashed")
    cluster2.backends[1].fail("hung")
    cluster2.run(ms(700))
    assert hb.state[0] is NodeHealth.DEAD
    assert hb.state[1] is NodeHealth.HUNG
    assert hb.healthy_backends() == []


def test_recover_restores_packet_flow(cluster2):
    """Node.recover() undoes both failure modes (regression: it used to
    not exist, so a failed node could never rejoin the cluster)."""
    be = cluster2.backends[0]
    be.fail("crashed")
    cluster2.run(ms(10))
    be.recover()
    progress = []

    def worker(k):
        while True:
            yield k.compute(us(500))
            progress.append(k.now)

    be.spawn("worker", worker)
    cluster2.run(ms(50))
    assert progress  # CPUs schedule again
    # Recovering a healthy node is a harmless no-op.
    events_before = cluster2.env.processed_events
    cluster2.frontend.recover()
    cluster2.run(cluster2.env.now + ms(1))
    assert cluster2.frontend.failure_mode == "up"
    assert cluster2.env.processed_events > events_before  # still ticking


def test_heartbeat_readmits_after_recover(cluster2):
    hb = HeartbeatMonitor(cluster2, interval=ms(20), hung_after=2)
    cluster2.run(ms(100))
    cluster2.backends[0].fail("hung")
    cluster2.run(ms(500))
    assert hb.state[0] is NodeHealth.HUNG
    assert hb.quarantined() == [0]
    cluster2.backends[0].recover()
    cluster2.run(ms(1000))
    assert hb.state[0] is NodeHealth.ALIVE
    assert hb.quarantined() == []
    states = [t.state for t in hb.transitions if t.backend == 0]
    assert states == [NodeHealth.HUNG, NodeHealth.ALIVE]


def test_heartbeat_validation(cluster2):
    with pytest.raises(ValueError):
        HeartbeatMonitor(cluster2, interval=0)
    with pytest.raises(ValueError):
        HeartbeatMonitor(cluster2, interval=ms(10), hung_after=0)
