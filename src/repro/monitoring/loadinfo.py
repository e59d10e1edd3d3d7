"""Load-information records and their derivation from kernel snapshots.

A :class:`LoadInfo` is what a monitoring scheme delivers to the front
end. ``collected_at`` is the *data* timestamp — when the underlying
kernel counters were observed — which is what staleness analysis (the
paper's Fig 5) compares against the ground truth at receive time.

:class:`LoadCalculator` turns raw kernel records (``kern.load`` and
``irq_stat``, laid out in :mod:`repro.kernel.loadavg` and
:mod:`repro.kernel.interrupts`) into LoadInfo, deriving CPU utilisation
from jiffy deltas between consecutive records. The asynchronous schemes run a calculator on the back end;
RDMA-Sync runs one on the *front end* over raw counters fetched by DMA —
no back-end CPU involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.kernel.interrupts import CPU_FIELDS, FIRST_CPU, HANDLED, PENDING, SOFTIRQ_BACKLOG
from repro.kernel.loadavg import JIFFIES, JIFFY_FIELDS


@dataclass(slots=True)
class LoadInfo:
    """One load report for one back-end node."""

    backend: str
    #: when the underlying counters were observed (backend clock)
    collected_at: int
    #: when the front end received the report (0 until delivered)
    received_at: int = 0
    nr_threads: int = 0
    nr_running: int = 0
    #: tick-resolution run-queue EMA — the fine-grained load signal
    runq_load: float = 0.0
    #: CPU utilisation in [0, 1] derived from jiffy deltas
    cpu_util: float = 0.0
    busy_cpus: int = 0
    #: 1-minute loadavg (coarse signal, for comparison)
    loadavg1: float = 0.0
    #: memory utilisation in [0, 1] (resident sets / physical memory)
    mem_util: float = 0.0
    #: network receive+transmit rate since the previous report, MB/s
    net_rate_mbps: float = 0.0
    #: application-level gauges (connections, memory) published by servers
    gauges: Dict[str, float] = field(default_factory=dict)
    #: pending interrupts per CPU (only e-RDMA-Sync fills this)
    irq_pending: Optional[Tuple[int, ...]] = None
    #: cumulative interrupts handled per CPU (extended info)
    irq_handled: Optional[Tuple[int, ...]] = None

    @property
    def staleness(self) -> int:
        """Age of the data at delivery time, ns."""
        return max(0, self.received_at - self.collected_at)

    @property
    def irq_pressure(self) -> float:
        """Total pending interrupts across CPUs (0 when not reported)."""
        if not self.irq_pending:
            return 0.0
        return float(sum(self.irq_pending))


class LoadCalculator:
    """Derives :class:`LoadInfo` from consecutive kernel records."""

    def __init__(self, backend_name: str) -> None:
        self.backend_name = backend_name
        #: per-CPU user+sys+irq ns at the previous record
        self._prev_busy: Optional[Tuple[int, ...]] = None
        self._prev_time: Optional[int] = None
        self._prev_net_bytes: Optional[int] = None
        self._prev_net_time: Optional[int] = None

    def compute(self, snapshot: tuple, irq_stat: Optional[tuple] = None) -> LoadInfo:
        """Produce a LoadInfo from a ``kern.load`` record (and optional
        ``irq_stat`` record)."""
        (now, _ticks, nr_running, nr_threads, busy_cpus, runq_ema,
         loadavg_1, _loadavg_5, _loadavg_15, mem_used, mem_total,
         net_rx, net_tx, num_cpus) = snapshot[:JIFFIES]
        gauges_at = JIFFIES + JIFFY_FIELDS * num_cpus
        gauges = iter(snapshot[gauges_at:])
        # Positional construction in LoadInfo field order: this runs
        # once per probe, and keywords would build a dict per call.
        info = LoadInfo(
            self.backend_name,
            now,
            0,
            nr_threads,
            nr_running,
            runq_ema,
            self._utilisation(snapshot, gauges_at, now),
            busy_cpus,
            loadavg_1,
            mem_used / mem_total if mem_total else 0.0,
            self._net_rate(net_rx + net_tx, now),
            dict(zip(gauges, gauges)),
        )
        if irq_stat is not None:
            cpus = range(FIRST_CPU, len(irq_stat), CPU_FIELDS)
            info.irq_pending = tuple([
                sum(irq_stat[c + PENDING:c + HANDLED]) + irq_stat[c + SOFTIRQ_BACKLOG]
                for c in cpus])
            info.irq_handled = tuple([
                sum(irq_stat[c + HANDLED:c + SOFTIRQ_BACKLOG]) for c in cpus])
        return info

    def _net_rate(self, total: int, now: int) -> float:
        """RX+TX MB/s since the previous record (0 on the first)."""
        prev_bytes, prev_time = self._prev_net_bytes, self._prev_net_time
        self._prev_net_bytes, self._prev_net_time = total, now
        if prev_bytes is None or prev_time is None or now <= prev_time:
            return 0.0
        return (total - prev_bytes) / ((now - prev_time) / 1e9) / 1e6

    def _utilisation(self, snapshot: tuple, jiffies_end: int, now: int) -> float:
        # Each CPU's (user, sys, irq, idle) ns sit at JIFFIES onwards.
        # Only the per-CPU busy totals matter for the delta, so keep
        # those (a tuple of ints) rather than the jiffies themselves.
        cpus = range(JIFFIES, jiffies_end, JIFFY_FIELDS)
        busy_now = tuple([snapshot[c] + snapshot[c + 1] + snapshot[c + 2] for c in cpus])
        prev_busy, prev_time = self._prev_busy, self._prev_time
        self._prev_busy = busy_now
        self._prev_time = now
        if prev_busy is None or prev_time is None or now <= prev_time:
            # No baseline yet: report instantaneous busy fraction
            # (CPUs with any user or sys time).
            busy = sum(1 for c in cpus if snapshot[c] + snapshot[c + 1] > 0)
            return busy / max(1, len(busy_now))
        elapsed = now - prev_time
        delta = sum(busy_now) - sum(prev_busy)
        return min(1.0, max(0.0, delta / (len(busy_now) * elapsed)))
