"""Tests for /proc emulation, load accounting and the kernel module."""

from repro.kernel.interrupts import CPU_FIELDS, FIRST_CPU
from repro.kernel.loadavg import (
    BUSY_CPUS,
    JIFFIES,
    JIFFY_FIELDS,
    NR_RUNNING,
    NR_THREADS,
    NUM_CPUS,
    TIME,
)
from repro.sim.units import ms, us


def spawn_hogs(node, n):
    def hog(k):
        while True:
            yield k.compute(us(1000))

    for i in range(n):
        node.spawn(f"hog{i}", hog)


def test_proc_read_returns_snapshot(cluster1):
    be = cluster1.backends[0]
    got = []

    def reader(k):
        stats = yield from be.procfs.read_stat(k)
        got.append(stats)

    be.spawn("reader", reader)
    cluster1.run(ms(5))
    stats = got[0]
    assert stats[NR_THREADS] == 3  # reader + 2 ksoftirqd
    assert stats[NUM_CPUS] == 2 and len(stats) == JIFFIES + 2 * JIFFY_FIELDS
    assert stats[TIME] > 0


def test_proc_scan_cost_grows_with_tasks(cluster1):
    be = cluster1.backends[0]
    empty_cost = be.procfs.scan_cost()
    spawn_hogs(be, 10)
    assert be.procfs.scan_cost() == empty_cost + 10 * be.cfg.syscall.proc_read_per_task


def test_proc_read_charges_caller(cluster1):
    be = cluster1.backends[0]

    def reader(k):
        yield from be.procfs.read_stat(k)

    task = be.spawn("reader", reader)
    cluster1.run(ms(5))
    assert task.sys_ns >= be.cfg.syscall.proc_read_base


def test_fast_load_tracks_runqueue(cluster1):
    be = cluster1.backends[0]
    spawn_hogs(be, 6)
    cluster1.run(ms(500))
    # 6 runnable hogs: the tick EMA should settle near 6.
    assert 4.5 < be.loadacct.fast_load() < 7.5


def test_fast_load_decays_when_idle(cluster1):
    be = cluster1.backends[0]

    def burst(k):
        yield k.compute(ms(50))

    be.spawn("burst", burst)
    cluster1.run(ms(60))
    peak = be.loadacct.fast_load()
    cluster1.run(ms(600))
    assert be.loadacct.fast_load() < peak / 2


def test_avenrun_rises_under_sustained_load(cluster1):
    be = cluster1.backends[0]
    spawn_hogs(be, 4)
    cluster1.run(ms(30_000))
    one_min, _, _ = be.loadacct.loadavg()
    assert one_min > 0.5


def test_snapshot_busy_cpus(cluster1):
    be = cluster1.backends[0]
    spawn_hogs(be, 2)
    cluster1.run(ms(10))
    snap = be.loadacct.snapshot()
    assert snap[BUSY_CPUS] == 2
    assert snap[NR_RUNNING] == 2


def test_kmod_irq_stat_read_costs_and_returns(cluster1):
    be = cluster1.backends[0]
    got = []

    def reader(k):
        stat = yield from be.kmod.read_irq_stat(k)
        got.append(stat)

    task = be.spawn("reader", reader)
    cluster1.run(ms(5))
    assert got and len(got[0]) == FIRST_CPU + 2 * CPU_FIELDS
    assert task.sys_ns >= be.kmod.IOCTL_COST
    assert be.kmod.reads == 1


def test_utilisation_from_jiffy_deltas(cluster1):
    """CPU utilisation derived by differencing jiffies ≈ truth."""
    be = cluster1.backends[0]
    spawn_hogs(be, 1)  # one hog: ~50% utilisation of 2 CPUs
    cluster1.run(ms(100))
    be.sched.sync()
    j0 = [dict(be.sched.jiffies(i)) for i in range(2)]
    t0 = cluster1.env.now
    cluster1.run(ms(600))
    be.sched.sync()
    j1 = [dict(be.sched.jiffies(i)) for i in range(2)]
    elapsed = cluster1.env.now - t0
    busy = sum(
        (a["user"] + a["sys"] + a["irq"]) - (b["user"] + b["sys"] + b["irq"])
        for a, b in zip(j1, j0)
    )
    util = busy / (2 * elapsed)
    assert 0.45 < util < 0.56, util
