#!/usr/bin/env python
"""Cluster-wide monitoring with Ganglia, fed by fine-grained gmetric.

Stands up the paper's §5.2.2 stack: a gmond daemon on every back-end
multicasting the default metric set, a gmetad aggregator on the front
end, and gmetric injecting fine-grained load measurements collected
through a monitoring scheme of your choice. Prints the federated view
and the cost of the collection path.

Run:  python examples/ganglia_monitoring.py [scheme] [granularity_ms]
"""

import sys

from repro.analysis.report import format_table
from repro.config import SimConfig
from repro.ganglia.gmetad import Gmetad
from repro.ganglia.gmetric import Gmetric
from repro.ganglia.gmond import Gmond
from repro.hw.cluster import build_cluster
from repro.monitoring import create_scheme
from repro.sim.units import MILLISECOND, SECOND
from repro.transport.multicast import MulticastGroup
from repro.workloads import create_workload


def main() -> None:
    scheme_name = sys.argv[1] if len(sys.argv) > 1 else "rdma-sync"
    granularity_ms = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    cfg = SimConfig(num_backends=4)
    sim = build_cluster(cfg)
    for node in sim.backends[:2]:
        create_workload("background", sim, node=node, threads=12)

    channel = MulticastGroup("ganglia")
    gmonds = [Gmond(node, channel, interval=1 * SECOND) for node in sim.backends]
    gmetad = Gmetad(sim.frontend, gmonds, interval=2 * SECOND)
    collector = create_scheme(scheme_name, sim, interval=granularity_ms * MILLISECOND)
    lats = []
    collector.observers.append(lambda r: lats.append(r.latency))
    gmetric = Gmetric(collector, channel, granularity=granularity_ms * MILLISECOND)

    print(f"Running Ganglia with gmetric({scheme_name}) every "
          f"{granularity_ms} ms for 5 simulated seconds ...")
    sim.run(5 * SECOND)

    rows = []
    for host in gmetad.store.hosts():
        metrics = gmetad.store.metrics_for(host)
        rows.append([
            host,
            f"{metrics.get('load_one', 0):.2f}",
            int(metrics.get("proc_total", 0)),
            int(metrics.get("proc_run", 0)),
        ])
    print()
    print(format_table(["host", "load_one", "proc_total", "proc_run"], rows,
                       title="gmetad federated view"))

    fine = gmonds[0].store
    rows = []
    for node in sim.backends:
        rows.append([node.name, f"{fine.value(node.name, 'fine_load') or 0:.2f}"])
    print()
    print(format_table(["host", "fine_load (gmetric)"], rows,
                       title=f"fine-grained metric via {scheme_name}"))

    print(f"\ngmetric published {gmetric.published} rounds; collection "
          f"latency avg {sum(lats) / len(lats) / 1e3:.0f} µs "
          f"(max {max(lats) / 1e3:.0f} µs)")
    print("Try: python examples/ganglia_monitoring.py socket-sync 1 — and "
          "watch the collection latency blow up on the loaded nodes.")


if __name__ == "__main__":
    main()
