#!/usr/bin/env python
"""The bounded metric plane watching an overloaded RUBiS cluster.

Runs an 8-node RUBiS burst with the full telemetry pipeline attached to
the front-end monitor: ring-buffer retention, streaming percentile
digests, EWMA anomaly detection and the alert engine. Halfway through,
one back-end is driven into overload by a background-load storm and a
second one hangs (kernel livelock: its HCA still answers one-sided
reads, but the tick counter freezes) — the overload threshold rule and
the RDMA-heartbeat rule both fire, and the run ends with the ASCII
dashboard plus the alert log.

Everything the dashboard shows was collected without consuming any
simulated time: the pipeline is observer-driven on the front end, so
the monitored cluster behaves bit-identically with or without it
(see benchmarks/test_telemetry.py).

Run:  python examples/telemetry_dashboard.py [scheme] [seconds]
"""

import sys

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.monitoring.heartbeat import HeartbeatMonitor
from repro.sim.units import MILLISECOND, SECOND, fmt_time
from repro.telemetry.pipeline import default_rules
from repro.workloads import create_workload
from repro.workloads.rubis import RubisWorkload


def main() -> None:
    scheme = sys.argv[1] if len(sys.argv) > 1 else "rdma-sync"
    duration_s = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    cfg = SimConfig(num_backends=8)
    app = (ClusterBuilder(cfg)
           .scheme(scheme, interval=50 * MILLISECOND)
           .workers(16)
           .with_telemetry(rules=default_rules(overload_above=0.95,
                                               overload_clear=0.60))
           .build())
    heartbeat = HeartbeatMonitor(app.sim, interval=50 * MILLISECOND)
    app.telemetry.attach_heartbeat(heartbeat)

    workload = RubisWorkload(app.sim, app.dispatcher, num_clients=16,
                             think_time=10 * MILLISECOND, demand_cv=0.4,
                             burst_length=10, idle_factor=8)
    workload.start()

    print(f"Running an 8-node RUBiS burst for {duration_s}s "
          f"({scheme} monitoring, telemetry attached) ...")
    half = duration_s * SECOND // 2
    app.run(half)

    # Fault injection: a CPU storm overloads backend0; backend7's kernel
    # livelocks (the HCA keeps answering, so polling continues, but the
    # heartbeat sees its tick counter freeze).
    print(f"t={fmt_time(app.sim.env.now)}: "
          "backend0 hit by a background-load storm, backend7 hangs ...")
    create_workload("background", app.sim, node=app.sim.backends[0],
                    threads=24)
    app.sim.backends[7].fail("hung")
    app.run(duration_s * SECOND)

    print()
    print(app.telemetry.dashboard())
    print()
    raised = [a for a in app.telemetry.engine.log if not a.cleared]
    print(f"Alerts raised: {len(raised)} "
          f"({app.telemetry.engine.counts_by_rule()})")
    print(f"Monitor polls: {app.monitor.polls}, "
          f"telemetry retained <= {app.telemetry.memory_bound()} samples")


if __name__ == "__main__":
    main()
