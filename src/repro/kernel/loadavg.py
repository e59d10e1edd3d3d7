"""Load accounting: avenrun, run-queue EMAs, utilisation counters.

Mirrors the kernel structures the paper's schemes read:

* ``avenrun`` — the classic 1/5/15-minute exponentially-decayed load
  averages, updated every ``LOAD_FREQ`` (5 s) from the run-queue length.
* a **fast EMA** of the run-queue length updated at every timer tick —
  the fine-grained load signal the monitoring schemes actually use
  (5-second averages are useless at 50 ms polling).
* per-CPU jiffies (via the scheduler) from which CPU utilisation is
  derived by differencing snapshots.

All of these are *live kernel state*: RDMA-Sync registers them as
provider-backed memory regions and reads them without the host CPU.

A read of ``kern.load`` (:meth:`LoadAccounting.snapshot`, also what
``/proc`` and the kernel module hand to user space) returns one record:
a flat, exact tuple of ints, floats and strs, whose fields the index
constants below name::

    (time, ticks, nr_running, nr_threads, busy_cpus, runq_ema,
     loadavg_1, loadavg_5, loadavg_15,
     mem_used_bytes, mem_total_bytes, net_rx_bytes, net_tx_bytes,
     num_cpus,
     user_0, sys_0, irq_0, idle_0, ..., user_n, sys_n, irq_n, idle_n,
     gauge_name_0, gauge_value_0, ...)

Jiffies are nanoseconds, ``JIFFY_FIELDS`` per CPU from ``JIFFIES`` on;
the node's application gauges follow as name/value pairs up to the end.
The record is flat on purpose. A collection stops tracking a tuple
whose items are all untracked, but it examines a tuple before the young
tuples only it holds, so it peels one level of nesting per collection:
a nested record would still be tracked at its first gen-1 collection
and be promoted into the collector's old generation. A flat record is
untracked by its first collection, so a record in flight is never
promoted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node

#: avenrun update period (Linux LOAD_FREQ = 5 s)
LOAD_FREQ_NS = 5_000_000_000

# Fixed-point decay factors for 1/5/15 min at a 5-second update period,
# as in the kernel (FSHIFT=11).
_FSHIFT = 11
_FIXED_1 = 1 << _FSHIFT
_EXP_1 = 1884
_EXP_5 = 2014
_EXP_15 = 2037

#: fields of a ``kern.load`` record; per-CPU jiffies start at ``JIFFIES``
(TIME, TICKS, NR_RUNNING, NR_THREADS, BUSY_CPUS, RUNQ_EMA, LOADAVG_1, LOADAVG_5,
 LOADAVG_15, MEM_USED_BYTES, MEM_TOTAL_BYTES, NET_RX_BYTES, NET_TX_BYTES, NUM_CPUS,
 JIFFIES) = range(15)
#: one CPU's jiffies: user, sys, irq and idle ns
JIFFY_FIELDS = 4


class LoadAccounting:
    """Per-node load statistics maintained at timer ticks."""

    #: smoothing factor for the fast run-queue EMA (per tick)
    FAST_EMA_ALPHA = 0.2

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.env = node.env
        #: fixed-point avenrun values (as the kernel stores them)
        self.avenrun: List[int] = [0, 0, 0]
        self._next_calc_load = self.env.now + LOAD_FREQ_NS
        #: fast EMA of nr_running (float, tick-resolution)
        self.runq_ema: float = 0.0
        #: tick counter
        self.ticks = 0

    # ------------------------------------------------------------------
    def on_tick(self) -> None:
        """Called once per node tick (from the CPU0 timer action)."""
        self.ticks += 1
        nr = self.node.sched.nr_running()
        alpha = self.FAST_EMA_ALPHA
        self.runq_ema += alpha * (nr - self.runq_ema)
        now = self.env.now
        if now >= self._next_calc_load:
            self._calc_load(nr)
            self._next_calc_load = now + LOAD_FREQ_NS

    def _calc_load(self, nr_running: int) -> None:
        active = nr_running * _FIXED_1
        for i, exp in enumerate((_EXP_1, _EXP_5, _EXP_15)):
            self.avenrun[i] = (self.avenrun[i] * exp + active * (_FIXED_1 - exp)) >> _FSHIFT

    # ------------------------------------------------------------------
    def loadavg(self) -> tuple:
        """(1min, 5min, 15min) floats, as /proc/loadavg presents them."""
        return tuple(v / _FIXED_1 for v in self.avenrun)

    def fast_load(self) -> float:
        """Tick-resolution run-queue EMA — the fine-grained load signal."""
        return self.runq_ema

    def snapshot(self) -> tuple:
        """The ``kern.load`` record, *now* (layout in the module doc).

        Built in a single pass over the CPUs (this runs on every RDMA
        read of the region, so the per-CPU accounting is inlined rather
        than going through ``sched.jiffies``/``busy_cpus`` separately —
        field-for-field identical to those helpers).
        """
        node = self.node
        sched = node.sched
        sched.sync()
        now = self.env.now
        elapsed = now - sched._start_time
        jiffies = []
        busy_cpus = 0
        for cpu in sched.cpus:
            user, sys_, irq = cpu.user_ns, cpu.sys_ns, cpu.irq_ns
            idle = elapsed - user - sys_ - irq
            jiffies += (user, sys_, irq, idle if idle > 0 else 0)
            if cpu.current is not None:
                busy_cpus += 1
        gauges = []
        for pair in node.gauges.items():
            gauges += pair
        nic = node.nic
        return (
            now,
            self.ticks,
            len(sched.runqueue) + busy_cpus,
            len(sched.tasks),
            busy_cpus,
            self.runq_ema,
            *self.loadavg(),
            sched.rss_total(),
            node.memory.capacity_bytes,
            nic.kernel_rx_bytes,
            nic.kernel_tx_bytes,
            len(sched.cpus),
            *jiffies,
            *gauges,
        )
