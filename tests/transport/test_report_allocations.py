"""Allocation guard: what a monitoring report keeps alive in flight.

An e-RDMA-Sync probe reads two kernel records (``kern.load`` and
``irq_stat``), carries them through the wire, the completion interrupt
and the poller's wake-up, and turns them into one ``LoadInfo``. That
takes long enough to survive a young collection, so anything the
collector still tracks by then is promoted into the oldest generation
and walked by every later full collection. These tests pin the report
path's footprint: both records are flat tuples of atoms that the first
young collection untracks, the ``LoadInfo`` is the only tracked object
a report leaves behind, federation packing passes its irq tuples
through, and a pending interrupt holds nothing tracked but its action.
"""

import functools
import gc
from dataclasses import fields

import pytest

from repro.config import SimConfig
from repro.federation import pack_info, unpack_info
from repro.hw.cluster import build_cluster
from repro.kernel.interrupts import IrqVector
from repro.monitoring import create_scheme
from repro.sim.units import ms, us

ATOMS = (int, float, str)


def _noop():
    pass


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


@pytest.fixture
def busy():
    """A two-back-end cluster with gauges, interrupt traffic and history."""
    sim = build_cluster(SimConfig(num_backends=2))
    be = sim.backends[0]
    be.gauges["connections"] = 3
    be.gauges["queue"] = 1.5
    for _ in range(3):
        be.irq.raise_irq(1, IrqVector.NIC, us(4))
        be.irq.raise_softirq(1, us(8))
    sim.run(ms(25))
    return sim


@pytest.mark.parametrize("region", ["kern.load", "kern.irq_stat"])
def test_kernel_record_is_untracked_after_one_young_collection(busy, region):
    be = busy.backends[0]
    be.irq.raise_irq(1, IrqVector.CQ, us(4))  # a pending count in the record
    record = be.memory.get(region).read()
    assert type(record) is tuple
    assert all(type(v) in ATOMS for v in record), record
    gc.collect(0)
    assert not gc.is_tracked(record)


def test_e_rdma_sync_load_info_references_nothing_tracked(busy):
    scheme = create_scheme("e-rdma-sync", busy, interval=ms(1))
    got = []

    def poller(k):
        for _ in range(2):
            got.append((yield from scheme.query(k, 0)))

    busy.frontend.spawn("poller", poller)
    busy.run(busy.env.now + ms(5))
    info = got[-1]
    assert info.gauges == {"connections": 3, "queue": 1.5}
    assert type(info.irq_pending) is tuple and type(info.irq_handled) is tuple
    assert len(info.irq_pending) == busy.backends[0].num_cpus
    gc.collect(0)
    held = {f.name: getattr(info, f.name) for f in fields(info)}
    assert [name for name, v in held.items() if gc.is_tracked(v)] == []


def test_pack_unpack_hands_irq_tuples_through(busy):
    scheme = create_scheme("e-rdma-sync", busy, interval=ms(1))
    got = []

    def poller(k):
        got.append((yield from scheme.query(k, 1)))

    busy.frontend.spawn("poller", poller)
    busy.run(busy.env.now + ms(5))
    info = got[0]
    index, back = unpack_info(pack_info(1, info))
    assert index == 1
    assert back.irq_pending is info.irq_pending
    assert back.irq_handled is info.irq_handled


@pytest.fixture
def warm():
    """A one-back-end cluster whose Hook pool holds spare carriers."""
    sim = build_cluster(SimConfig(num_backends=1))
    for _ in range(16):
        sim.env.call_later(1, _noop)
    sim.run(ms(5))
    return sim


def test_pending_interrupts_hold_only_their_actions(warm):
    irq = warm.backends[0].irq
    fired = []
    action = functools.partial(fired.append, 1)
    before = _tracked()
    irq.raise_irq(0, IrqVector.NIC, us(4), action=action)  # in service
    irq.raise_irq(0, IrqVector.CQ, us(4), action=action)  # queued behind it
    irq.raise_softirq(0, us(8), action=action)
    irq.raise_softirq(1, us(8), action=action)  # in service on CPU 1
    irq.raise_softirq(1, us(8))
    assert _tracked() == before
    warm.run(warm.env.now + ms(1))
    assert fired == [1, 1, 1, 1]
