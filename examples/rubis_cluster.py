#!/usr/bin/env python
"""A cluster-based auction site balanced by fine-grained monitoring.

Deploys the full Table-1 stack — back-end web servers, the WebSphere-
style least-loaded balancer fed by a monitoring scheme of your choice,
and the closed-loop RUBiS client emulator — then prints the per-query
response-time table and the per-back-end request distribution.

Run:  python examples/rubis_cluster.py [scheme] [seconds]
      scheme ∈ socket-async | socket-sync | rdma-async | rdma-sync | e-rdma-sync
"""

import sys

from repro.analysis.report import format_table
from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.rubis import RUBIS_QUERIES, RubisWorkload


def main() -> None:
    scheme = sys.argv[1] if len(sys.argv) > 1 else "e-rdma-sync"
    duration_s = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    cfg = SimConfig(num_backends=4)
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    app = (ClusterBuilder(cfg)
           .scheme(scheme, interval=50 * MILLISECOND)
           .workers(32)
           .build())
    workload = RubisWorkload(app.sim, app.dispatcher, num_clients=96,
                             think_time=3 * MILLISECOND, demand_cv=0.4,
                             burst_length=10, idle_factor=8)
    workload.start()
    lats = []
    app.scheme.observers.append(lambda r: lats.append(r.latency))

    print(f"Running RUBiS for {duration_s}s of simulated time "
          f"with {scheme} monitoring ...")
    app.run(duration_s * SECOND)

    stats = app.dispatcher.stats
    rows = []
    for q in RUBIS_QUERIES:
        times = stats.response_times(q.name)
        if not times:
            continue
        rows.append([
            q.name,
            len(times),
            f"{sum(times) / len(times) / 1e6:.1f}",
            f"{max(times) / 1e6:.0f}",
        ])
    print()
    print(format_table(["Query", "count", "avg ms", "max ms"], rows,
                       title=f"RUBiS response times ({scheme})"))
    print(f"\nThroughput: {stats.throughput(duration_s * SECOND):.0f} req/s")
    print(f"Per-backend distribution: {dict(sorted(stats.per_backend_counts().items()))}")
    print(f"Monitoring latency: avg {sum(lats) / len(lats) / 1e3:.0f} µs, "
          f"max {max(lats) / 1e3:.0f} µs over {len(lats)} queries")


if __name__ == "__main__":
    main()
