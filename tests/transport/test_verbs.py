"""Tests for verbs: registration, RDMA read/write, access control."""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import ms, us
from repro.transport.verbs import (
    AccessFlags,
    ProtectionDomain,
    VerbsError,
    WcStatus,
    connect_qp,
)


def setup_mr(node, name="buf", value=None, access=AccessFlags.REMOTE_READ, live=None):
    if live is not None:
        region = node.memory.alloc_live(name, 64, provider=live)
    else:
        region = node.memory.alloc(name, 64, value=value)
    pd = ProtectionDomain.for_node(node)
    return pd.register(region, access)


def run_task(cluster, node, body, until_ms=50):
    results = []

    def wrapper(k):
        value = yield from body(k)
        results.append(value)

    node.spawn("t", wrapper)
    cluster.run(ms(until_ms))
    assert results, "task did not complete"
    return results[0]


def test_registration_pins_region(cluster2):
    be = cluster2.backends[0]
    mr = setup_mr(be, value=1)
    assert mr.region.pinned
    assert mr.rkey >= 0x1000


def test_registration_requires_access_flag(cluster2):
    be = cluster2.backends[0]
    region = be.memory.alloc("r", 64)
    pd = ProtectionDomain.for_node(be)
    with pytest.raises(VerbsError):
        pd.register(region, AccessFlags(0))


def test_deregister_unpins_and_invalidates(cluster2):
    be = cluster2.backends[0]
    mr = setup_mr(be, value=1)
    rkey = mr.rkey
    mr.deregister()
    assert not mr.region.pinned
    assert ProtectionDomain.for_node(be).lookup(rkey) is None


def test_rdma_read_returns_value(cluster2):
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = setup_mr(be, value={"load": 0.5})
    qp, _ = connect_qp(fe, be)

    def body(k):
        wc = yield from qp.rdma_read(k, mr.rkey, 64)
        return wc

    wc = run_task(cluster2, fe, body)
    assert wc.ok
    assert wc.value == {"load": 0.5}


def test_rdma_read_latency_reasonable(cluster2):
    """Small RDMA read should land in the tens of microseconds."""
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = setup_mr(be, value=42)
    qp, _ = connect_qp(fe, be)

    def body(k):
        t0 = k.now
        yield from qp.rdma_read(k, mr.rkey, 64)
        return k.now - t0

    latency = run_task(cluster2, fe, body)
    assert us(5) < latency < us(40), latency


def test_rdma_read_of_live_region_sees_current_value(cluster2):
    fe, be = cluster2.frontend, cluster2.backends[0]
    state = {"v": 0}
    mr = setup_mr(be, name="live", live=lambda: state["v"])
    qp, _ = connect_qp(fe, be)
    got = []

    def body(k):
        wc = yield from qp.rdma_read(k, mr.rkey, 64)
        got.append(wc.value)
        state["v"] = 123
        wc = yield from qp.rdma_read(k, mr.rkey, 64)
        got.append(wc.value)
        return None

    run_task(cluster2, fe, body)
    assert got == [0, 123]


def test_rdma_read_invalid_rkey(cluster2):
    fe, be = cluster2.frontend, cluster2.backends[0]
    qp, _ = connect_qp(fe, be)

    def body(k):
        wc = yield from qp.rdma_read(k, 0xDEAD, 64)
        return wc

    wc = run_task(cluster2, fe, body)
    assert wc.status is WcStatus.INVALID_RKEY


def test_rdma_read_length_error(cluster2):
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = setup_mr(be, value=1)
    qp, _ = connect_qp(fe, be)

    def body(k):
        wc = yield from qp.rdma_read(k, mr.rkey, 4096)
        return wc

    wc = run_task(cluster2, fe, body)
    assert wc.status is WcStatus.LENGTH_ERROR


def test_rdma_write_updates_remote_buffer(cluster2):
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = setup_mr(be, value=0, access=AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE)
    qp, _ = connect_qp(fe, be)

    def body(k):
        wc = yield from qp.rdma_write(k, mr.rkey, "updated", 32)
        return wc

    wc = run_task(cluster2, fe, body)
    assert wc.ok
    assert mr.region.read() == "updated"


def test_rdma_write_to_readonly_mr_naks(cluster2):
    """The §6 security property: read-only registrations reject writes."""
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = setup_mr(be, value="kernel-data", access=AccessFlags.REMOTE_READ)
    qp, _ = connect_qp(fe, be)

    def body(k):
        wc = yield from qp.rdma_write(k, mr.rkey, "evil", 32)
        return wc

    wc = run_task(cluster2, fe, body)
    assert wc.status is WcStatus.REMOTE_ACCESS_ERROR
    assert mr.region.read() == "kernel-data"


def test_rdma_read_independent_of_target_load(cluster2):
    """The headline property: read latency is flat under target CPU load."""
    fe, be = cluster2.frontend, cluster2.backends[0]
    mr = setup_mr(be, value=7)
    qp, _ = connect_qp(fe, be)
    lat = {}

    def measure(tag, n=10):
        def body(k):
            total = 0
            for _ in range(n):
                t0 = k.now
                yield from qp.rdma_read(k, mr.rkey, 64)
                total += k.now - t0
                yield k.sleep(ms(5))
            lat[tag] = total / n
            return None

        return body

    fe.spawn("m1", measure("idle"))
    cluster2.run(ms(100))

    def hog(k):
        while True:
            yield k.compute(us(1000))

    for i in range(8):
        be.spawn(f"hog{i}", hog)
    fe.spawn("m2", measure("loaded"))
    cluster2.run(ms(250))
    assert abs(lat["loaded"] - lat["idle"]) < us(2), lat


def test_channel_send_recv(cluster2):
    a, b = cluster2.backends
    qa, qb = connect_qp(a, b)
    got = []

    def sender(k):
        yield from qa.send(k, {"msg": 1}, 64)

    def receiver(k):
        payload = yield from qb.recv(k)
        got.append((k.now, payload))

    b.spawn("rx", receiver)
    a.spawn("tx", sender)
    cluster2.run(ms(10))
    assert got and got[0][1] == {"msg": 1}


def test_channel_send_requires_connection(cluster2):
    from repro.transport.verbs import QueuePair

    a, b = cluster2.backends
    qp = QueuePair(a, b)  # never connected
    errors = []

    def sender(k):
        try:
            yield from qp.send(k, "x", 8)
        except VerbsError:
            errors.append(True)

    a.spawn("tx", sender)
    cluster2.run(ms(5))
    assert errors == [True]


def test_channel_recv_interrupts_target_cpu(cluster2):
    """Channel semantics cost the receiver CPU (unlike RDMA read)."""
    a, b = cluster2.backends
    qa, qb = connect_qp(a, b)
    from repro.kernel.interrupts import IrqVector

    def receiver(k):
        yield from qb.recv(k)

    def sender(k):
        yield from qa.send(k, "x", 64)

    b.spawn("rx", receiver)
    a.spawn("tx", sender)
    before = sum(s.handled[IrqVector.CQ] for s in b.irq.percpu)
    cluster2.run(ms(10))
    after = sum(s.handled[IrqVector.CQ] for s in b.irq.percpu)
    assert after == before + 1


def test_work_request_ids_are_numbered_per_qp():
    """Two same-seed runs in one process complete identically, wr_id
    included: ids count per QP from 1, not across the whole process."""

    def run():
        sim = build_cluster(SimConfig(num_backends=1, master_seed=3))
        fe, be = sim.frontend, sim.backends[0]
        mr = setup_mr(be, value=5, access=AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE
                      | AccessFlags.REMOTE_ATOMIC)
        qp, _ = connect_qp(fe, be)
        other, _ = connect_qp(be, fe)
        events = [qp._post_read(mr.rkey, 8), qp._post_write(mr.rkey, 6, 8),
                  qp._post_atomic(mr.rkey, "fetch-add", 1, None),
                  other._post_read(0xDEAD, 8)]
        sim.run(ms(1))
        return [ev.value for ev in events]

    first, second = run(), run()
    assert [wc.wr_id for wc in first] == [1, 2, 3, 1]
    assert first == second
