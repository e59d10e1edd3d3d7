"""Tests for IRQ delivery, steals, softirqs, irq_stat visibility."""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.kernel.interrupts import (
    BH_EXECUTED,
    CPU_FIELDS,
    FIRST_CPU,
    HANDLED,
    PENDING,
    SOFTIRQ_BACKLOG,
    IrqVector,
)
from repro.sim.units import ms, us


def hard_pending(stat, cpu):
    """Raised-but-unserviced hard interrupts of ``cpu`` in an irq_stat record."""
    block = FIRST_CPU + cpu * CPU_FIELDS
    return sum(stat[block + PENDING:block + HANDLED])


def test_timer_irqs_fire_on_every_cpu(cluster1):
    be = cluster1.backends[0]
    cluster1.run(ms(105))
    for cpu in range(2):
        handled = be.irq.percpu[cpu].handled[IrqVector.TIMER]
        assert handled == 10, handled


def test_irq_steals_delay_running_task(cluster1):
    be = cluster1.backends[0]
    ends = []

    def worker(k):
        yield k.compute(ms(50))
        ends.append(k.now)

    be.spawn("worker", worker)
    cluster1.run(ms(80))
    # 50 ms of work is delayed by 5 timer interrupts plus dispatch
    # overhead — strictly more than 50 ms wall time.
    assert ends and ends[0] > ms(50)
    assert ends[0] < ms(51)


def test_manual_irq_accounting(cluster1):
    be = cluster1.backends[0]
    fired = []
    be.irq.raise_irq(0, IrqVector.NIC, us(4), action=lambda: fired.append(be.env.now))
    cluster1.run(ms(1))
    assert len(fired) == 1
    state = be.irq.percpu[0]
    assert state.handled[IrqVector.NIC] == 1
    assert state.hard_pending[IrqVector.NIC] == 0


def test_pending_count_visible_during_service(cluster1):
    """irq_stat must show pending interrupts between raise and service."""
    be = cluster1.backends[0]
    observed = []

    # Raise two NIC IRQs back to back; while the first is in service the
    # second is pending.
    def first_done():
        observed.append(hard_pending(be.irq.irq_stat(), 0))

    be.irq.raise_irq(0, IrqVector.NIC, us(4), action=first_done)
    be.irq.raise_irq(0, IrqVector.NIC, us(4))
    # Sample immediately (before any service completes).
    snap = be.irq.irq_stat()
    assert hard_pending(snap, 0) == 2
    assert snap[FIRST_CPU + PENDING + IrqVector.NIC] == 2
    cluster1.run(ms(1))
    # When the first handler finished, the second was still pending.
    assert observed == [1]
    assert hard_pending(be.irq.irq_stat(), 0) == 0


def test_softirq_budget_defers_to_ksoftirqd(cluster1):
    be = cluster1.backends[0]
    done = []
    budget = be.cfg.irq.softirq_budget
    for i in range(budget + 5):
        be.irq.raise_softirq(0, us(8), action=lambda i=i: done.append(i))
    cluster1.run(ms(20))
    # Everything eventually completes, some of it via ksoftirqd.
    assert len(done) == budget + 5
    assert be.irq.percpu[0].bh_executed == budget + 5


def test_nic_irq_affinity_targets_cpu1(cluster1):
    be = cluster1.backends[0]
    assert be.irq.nic_target_cpu() == 1


def test_nic_irq_affinity_round_robin():
    cfg = SimConfig(num_backends=1)
    cfg.irq.nic_irq_affinity = -1
    sim = build_cluster(cfg)
    be = sim.backends[0]
    targets = {be.irq.nic_target_cpu() for _ in range(4)}
    assert targets == {0, 1}


def test_irq_stat_snapshot_structure(cluster1):
    be = cluster1.backends[0]
    be.irq.raise_irq(0, IrqVector.NIC, us(4))
    be.irq.raise_softirq(0, us(8))
    cluster1.run(ms(25))
    be.irq.raise_irq(1, IrqVector.CQ, us(4))
    be.irq.raise_softirq(1, us(8))
    snap = be.irq.irq_stat()
    assert type(snap) is tuple
    assert all(type(v) is int for v in snap)
    assert len(snap) == FIRST_CPU + 2 * CPU_FIELDS
    assert snap[0] == cluster1.env.now
    for cpu in range(2):
        state = be.irq.percpu[cpu]
        block = snap[FIRST_CPU + cpu * CPU_FIELDS:FIRST_CPU + (cpu + 1) * CPU_FIELDS]
        assert block[PENDING:HANDLED] == tuple(state.hard_pending)
        assert block[HANDLED:SOFTIRQ_BACKLOG] == tuple(state.handled)
        assert block[SOFTIRQ_BACKLOG] == len(state.soft_costs)
        assert block[BH_EXECUTED] == state.bh_executed
    cpu1 = FIRST_CPU + CPU_FIELDS
    assert snap[cpu1 + PENDING + IrqVector.CQ] == 1
    assert snap[cpu1 + SOFTIRQ_BACKLOG] == 1
    assert snap[FIRST_CPU + HANDLED + IrqVector.NIC] == 1
    assert snap[FIRST_CPU + HANDLED + IrqVector.TIMER] == 2
    assert snap[FIRST_CPU + BH_EXECUTED] == 1


def test_irq_busy_until_advances(cluster1):
    be = cluster1.backends[0]
    before = be.irq.busy_until(0)
    be.irq.raise_irq(0, IrqVector.NIC, us(4))
    assert be.irq.busy_until(0) > before


def test_irq_time_charged_to_irq_bucket(cluster1):
    be = cluster1.backends[0]
    for _ in range(100):
        be.irq.raise_irq(0, IrqVector.NIC, us(4))
    cluster1.run(ms(5))
    j = be.sched.jiffies(0)
    # 100 * (entry 1.5us + 4us) = 550 us of irq time.
    assert j["irq"] >= us(550)
