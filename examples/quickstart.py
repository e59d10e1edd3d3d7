#!/usr/bin/env python
"""Quickstart: monitor a loaded back-end with all five schemes.

Builds a two-back-end cluster, loads one node with background work,
deploys every monitoring scheme side by side and prints what each one
reports — latency, staleness and the load values themselves. Finishes by
demonstrating the §6 security property: kernel regions are registered
read-only, so a remote RDMA write is NAKed.

Run:  python examples/quickstart.py
"""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.monitoring.registry import SCHEME_NAMES
from repro.sim.units import MILLISECOND, SECOND, fmt_time, us
from repro.transport.verbs import ProtectionDomain, connect_qp
from repro.workloads import create_workload


def main() -> None:
    cfg = SimConfig(num_backends=2)
    sim = build_cluster(cfg)
    target = sim.backends[0]

    # Load the first back-end: 24 background threads, half of them
    # hammering the NIC (the paper's §5.1.1 setup).
    create_workload("background", sim, node=target, threads=24)

    # Deploy all five schemes concurrently, each polling every 50 ms,
    # and record every probe's latency.
    monitors = {}
    latencies = {}
    for name in SCHEME_NAMES:
        scheme = create_scheme(name, sim, interval=50 * MILLISECOND)
        lats = latencies[name] = []
        scheme.observers.append(lambda r, lats=lats: lats.append(r.latency))
        monitors[name] = FrontendMonitor(scheme, name=f"mon:{name}")
        monitors[name].start()

    print("Simulating 3 seconds of cluster time ...")
    sim.run(3 * SECOND)

    print(f"\n{'scheme':14s} {'avg lat':>10s} {'max lat':>10s} "
          f"{'staleness':>10s} {'threads':>8s} {'cpu':>5s} {'runq':>6s}")
    for name, monitor in monitors.items():
        lats = latencies[name]
        info = monitor.latest[0]
        print(f"{name:14s} {fmt_time(int(sum(lats) / len(lats))):>10s} "
              f"{fmt_time(max(lats)):>10s} {fmt_time(info.staleness):>10s} "
              f"{info.nr_threads:8d} {info.cpu_util:5.2f} {info.runq_load:6.2f}")

    # --- §6: kernel memory is registered read-only --------------------------
    pd = ProtectionDomain.for_node(target)
    kern_mr = next(mr for mr in pd.mrs.values() if mr.region.name == "kern.load")
    qp, _ = connect_qp(sim.frontend, target)
    outcome = []

    def attacker(k):
        wc = yield from qp.rdma_write(k, kern_mr.rkey, {"evil": True}, 64)
        outcome.append(wc.status)

    sim.frontend.spawn("attacker", attacker)
    sim.run(sim.env.now + 10 * MILLISECOND)
    print(f"\nRDMA write to the kernel load region -> {outcome[0].value} "
          "(read-only registration, as §6 requires)")


if __name__ == "__main__":
    main()
