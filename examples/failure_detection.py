#!/usr/bin/env python
"""Liveness detection with RDMA heartbeats (robustness extension).

Because an RDMA read of kernel memory needs neither the remote CPU nor
any remote software, it can positively distinguish three conditions a
socket health-check cannot tell apart:

* ALIVE — the probe returns and the kernel's tick counter advances;
* HUNG  — the probe returns but the tick counter is frozen (kernel
  livelock: the NIC answers, the OS does not);
* DEAD  — the probe times out (node off the fabric).

This script crashes one back-end, hangs another, and shows the
heartbeat monitor classifying all three states within a few probe
intervals.

Run:  python examples/failure_detection.py
"""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring.heartbeat import HeartbeatMonitor
from repro.sim.units import MILLISECOND, SECOND, fmt_time
from repro.workloads import create_workload


def main() -> None:
    sim = build_cluster(SimConfig(num_backends=3))
    for be in sim.backends:
        create_workload("background", sim, node=be, threads=8)
    hb = HeartbeatMonitor(sim, interval=20 * MILLISECOND, hung_after=2)

    print("All nodes healthy; probing every 20 ms ...")
    sim.run(1 * SECOND)
    print({i: s.value for i, s in hb.state.items()})

    crash_at = sim.env.now
    print(f"\nt={fmt_time(crash_at)}: backend0 crashes, backend1 hangs ...")
    sim.backends[0].fail("crashed")
    sim.backends[1].fail("hung")
    sim.run(crash_at + 1 * SECOND)

    print({i: s.value for i, s in hb.state.items()})
    print("\nState transitions:")
    for t in hb.transitions:
        print(f"  t={fmt_time(t.time)}  backend{t.backend} -> {t.state.value} "
              f"(+{fmt_time(t.time - crash_at)} after the fault)")
    print(f"\nHealthy pool for the load balancer: {hb.healthy_backends()}")
    print(f"Total probes: {hb.probes} — zero CPU consumed on any back-end.")


if __name__ == "__main__":
    main()
