"""Tests for the FaultPlane: hooks, schedule execution, counters."""

import pytest

from repro.config import SimConfig
from repro.faults import FaultPlane, FaultSchedule, parse_schedule
from repro.hw.cluster import build_cluster
from repro.sim.resources import Store
from repro.sim.units import ms, us
from repro.transport.sockets import socket_pair
from repro.transport.verbs import (
    AccessFlags,
    ProtectionDomain,
    WcStatus,
    connect_qp,
)


def _install(sim, text):
    return FaultPlane(sim, parse_schedule(text)).install()


def test_install_registers_hooks(cluster2):
    plane = FaultPlane(cluster2).install()
    assert cluster2.fabric.faults is plane
    assert cluster2.faults is plane
    with pytest.raises(RuntimeError):
        plane.install()


def test_empty_schedule_spawns_nothing():
    # Twin same-seed clusters: one bare, one with an idle fault plane.
    bare = build_cluster(SimConfig(num_backends=2, master_seed=7))
    hooked = build_cluster(SimConfig(num_backends=2, master_seed=7))
    FaultPlane(hooked, FaultSchedule()).install()
    bare.run(ms(50))
    hooked.run(ms(50))
    # No driver process, no scheduled events, no records.
    assert hooked.env.processed_events == bare.env.processed_events
    assert hooked.faults.records == []
    assert hooked.faults.stats()["applied"] == 0


def test_crash_and_recover_through_schedule(cluster2):
    plane = _install(cluster2,
                     "at 10ms crash backend0\nat 50ms recover backend0")
    be = cluster2.backends[0]
    fe = cluster2.frontend
    store = Store(cluster2.env, name="rx")

    def sender(k):
        while True:
            yield from fe.netstack.send(k, be, store, "ping", 64)
            yield k.sleep(ms(5))

    fe.spawn("tx", sender)
    cluster2.run(ms(9))
    delivered_before = len(store)
    assert delivered_before > 0
    cluster2.run(ms(49))
    # Crashed: nothing further arrives.
    assert len(store) == delivered_before
    cluster2.run(ms(100))
    assert len(store) > delivered_before
    assert plane.stats()["applied"] == 2
    kinds = [(r.kind, r.active) for r in plane.records]
    assert kinds == [("crash", True), ("recover", True)]


def test_partition_drops_both_directions(cluster2):
    plane = _install(
        cluster2, "from 5ms to 60ms partition frontend | backend0 backend1")
    fe, be = cluster2.frontend, cluster2.backends[0]
    fe_store = Store(cluster2.env, name="fe-rx")
    be_store = Store(cluster2.env, name="be-rx")

    def fe_tx(k):
        while True:
            yield from fe.netstack.send(k, be, be_store, "req", 64)
            yield k.sleep(ms(5))

    def be_tx(k):
        while True:
            yield from be.netstack.send(k, fe, fe_store, "rep", 64)
            yield k.sleep(ms(5))

    fe.spawn("fe-tx", fe_tx)
    be.spawn("be-tx", be_tx)
    cluster2.run(ms(55))
    # Only the pre-partition sends landed.
    assert len(be_store) <= 2 and len(fe_store) <= 2
    assert plane.dropped_packets > 0
    cluster2.run(ms(150))
    assert len(be_store) > 5 and len(fe_store) > 5
    # Backends were never split from each other.
    assert plane.on_transmit(
        cluster2.backends[0].nic, cluster2.backends[1].nic, 64) is None


def test_link_degradation_slows_but_delivers(cluster2):
    _install(cluster2,
             "from 20ms to 200ms degrade-link frontend backend0 latency=20")
    fe, be = cluster2.frontend, cluster2.backends[0]
    ea, eb = socket_pair(fe, be)
    rtts = []

    def echo(k):
        while True:
            msg = yield from eb.recv(k)
            yield from eb.send(k, msg, 64)

    def prober(k):
        while True:
            t0 = k.now
            yield from ea.send(k, "ping", 64)
            yield from ea.recv(k)
            rtts.append((t0, k.now - t0))
            yield k.sleep(ms(10))

    be.spawn("echo", echo)
    fe.spawn("probe", prober)
    cluster2.run(ms(200))
    healthy = [rtt for t0, rtt in rtts if t0 < ms(20)]
    degraded = [rtt for t0, rtt in rtts if ms(20) <= t0 < ms(180)]
    assert degraded and healthy
    assert min(degraded) > max(healthy)
    # Every probe still completed — degradation is not loss.
    assert len(rtts) >= 15


def test_loss_drops_fraction_of_packets(cluster2):
    plane = _install(
        cluster2, "from 0ms to 900ms degrade-link frontend backend0 loss=0.5")
    fe, be = cluster2.frontend, cluster2.backends[0]
    store = Store(cluster2.env, name="rx")

    def sender(k):
        for _ in range(200):
            yield from fe.netstack.send(k, be, store, "x", 64)
            yield k.sleep(ms(1))

    fe.spawn("tx", sender)
    cluster2.run(ms(400))
    assert plane.dropped_packets > 30
    assert len(store) > 30  # and plenty still got through


def test_verb_nak_injection_and_revocation(cluster2):
    plane = _install(cluster2, "from 5ms to 50ms verb-nak backend0 p=1.0")
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = ProtectionDomain.for_node(be).register(
        be.memory.get("kern.load"), AccessFlags.REMOTE_READ)
    qp, _ = connect_qp(fe, be)
    wcs = []

    def reader(k):
        while True:
            wc = yield from qp.rdma_read(k, mr.rkey, mr.nbytes)
            wcs.append((k.now, wc))
            yield k.sleep(ms(5))

    fe.spawn("reader", reader)
    cluster2.run(ms(100))
    during = [wc for t, wc in wcs if ms(5) < t < ms(50)]
    after = [wc for t, wc in wcs if t > ms(55)]
    assert during and all(not wc.ok for wc in during)
    assert all(wc.status is WcStatus.RNR_RETRY for wc in during)
    assert after and all(wc.ok for wc in after)
    assert plane.naks_injected == len(during)


def test_verb_nak_respects_opcode_filter(cluster2):
    _install(cluster2,
             "from 0ms to 900ms verb-nak backend0 p=1.0 opcodes=write")
    fe, be = cluster2.backends[1], cluster2.backends[0]
    mr = ProtectionDomain.for_node(be).register(
        be.memory.get("kern.load"), AccessFlags.REMOTE_READ)
    qp, _ = connect_qp(fe, be)
    wcs = []

    def reader(k):
        wc = yield from qp.rdma_read(k, mr.rkey, mr.nbytes)
        wcs.append(wc)

    fe.spawn("reader", reader)
    cluster2.run(ms(50))
    assert wcs and wcs[0].ok  # reads sail through a write-only fault


def test_invalidate_mr_breaks_stale_rkey(cluster2):
    plane = _install(cluster2, "at 10ms invalidate-mr backend0 kern.load")
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = ProtectionDomain.for_node(be).register(
        be.memory.get("kern.load"), AccessFlags.REMOTE_READ)
    qp, _ = connect_qp(fe, be)
    wcs = []

    def reader(k):
        while True:
            wc = yield from qp.rdma_read(k, mr.rkey, mr.nbytes)
            wcs.append((k.now, wc))
            yield k.sleep(ms(5))

    fe.spawn("reader", reader)
    cluster2.run(ms(60))
    before = [wc for t, wc in wcs if t < ms(10)]
    after = [wc for t, wc in wcs if t > ms(12)]
    assert before and all(wc.ok for wc in before)
    assert after and all(wc.status is WcStatus.INVALID_RKEY for wc in after)
    assert plane.mrs_invalidated == 1


def test_degrade_nic_sets_and_clears_dma_factor(cluster2):
    _install(cluster2, "from 10ms to 40ms degrade-nic backend0 dma=8")
    be = cluster2.backends[0]
    cluster2.run(ms(5))
    assert be.nic.fault_dma_factor == 1.0
    cluster2.run(ms(20))
    assert be.nic.fault_dma_factor == 8.0
    cluster2.run(ms(60))
    assert be.nic.fault_dma_factor == 1.0


def test_observer_sees_every_action(cluster2):
    plane = _install(
        cluster2,
        "at 5ms hang backend0\n"
        "at 20ms recover backend0\n"
        "from 10ms to 30ms verb-nak backend1 p=0.5\n")
    seen = []
    plane.observers.append(seen.append)
    cluster2.run(ms(50))
    assert [(r.kind, r.active) for r in seen] == [
        ("hang", True), ("verb-nak", True),
        ("recover", True), ("verb-nak", False)]
    # Backend indices resolved for node-targeted faults.
    assert seen[0].backend == 0
    assert seen[1].backend == 1
    assert plane.records == seen


def test_fault_actions_emit_spans_when_tracing():
    cfg = SimConfig(num_backends=2)
    cfg.tracing.enabled = True
    sim = build_cluster(cfg)
    _install(sim, "at 5ms hang backend0\nat 20ms recover backend0")
    sim.run(ms(30))
    fault_spans = [s for s in sim.spans.spans if s.component == "faults"]
    assert [s.name for s in fault_spans] == ["fault:hang", "fault:recover"]
    assert fault_spans[0].node == "backend0"
    assert fault_spans[0].attrs["active"] is True


def test_active_faults_listing(cluster2):
    plane = _install(
        cluster2,
        "from 5ms to 50ms degrade-link frontend backend0 latency=4\n"
        "from 5ms to 50ms partition frontend | backend1\n"
        "from 5ms to 50ms verb-nak backend0 p=0.25\n")
    cluster2.run(ms(10))
    listing = "\n".join(plane.active_faults())
    assert "degrade-link" in listing
    assert "partition" in listing
    assert "verb-nak backend0 p=0.25" in listing
    cluster2.run(ms(100))
    assert plane.active_faults() == []
