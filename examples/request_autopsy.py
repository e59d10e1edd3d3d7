#!/usr/bin/env python
"""Autopsy of one slow request and one monitoring probe.

Runs a traced RUBiS burst, then drills into the causal span trees the
tracing plane recorded: the slowest sampled request (client → dispatcher
→ balancer pick → back-end queue/service → database → response) and one
RDMA-Sync monitoring probe (post → fabric flight → target DMA →
completion), printing each trace's timeline, critical path, and the
per-component exclusive-time flamegraph. The probe's verb-level segment
sum is checked against the closed-form fabric+DMA latency model, and
the whole span store is exported as Chrome-trace JSON loadable in
Perfetto (https://ui.perfetto.dev).

Tracing, like the telemetry plane, is observer bookkeeping only — the
simulated cluster behaves bit-identically with it on or off (see
benchmarks/test_tracing.py).

Run:  python examples/request_autopsy.py [scheme] [seconds] [--out FILE]
"""

import sys

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.node import KERN_LOAD_BYTES
from repro.sim.units import MILLISECOND, SECOND
from repro.tracing import (
    analytic_rdma_read_ns,
    critical_path,
    flame,
    format_trace,
    save_chrome_trace,
    trace_summary,
)
from repro.tracing.analysis import verb_segment_sum
from repro.workloads.rubis import RubisWorkload


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    scheme = args[0] if args else "rdma-sync"
    duration_s = int(args[1]) if len(args) > 1 else 2
    out_path = None
    for i, a in enumerate(sys.argv[1:], 1):
        if a == "--out" and i < len(sys.argv) - 1:
            out_path = sys.argv[i + 1]

    cfg = SimConfig(num_backends=4)
    app = (ClusterBuilder(cfg)
           .scheme(scheme)
           .workers(8)
           .with_admission()
           .with_tracing()
           .build())
    workload = RubisWorkload(app.sim, app.dispatcher, num_clients=24,
                             think_time=10 * MILLISECOND, burst_length=8)
    workload.start()

    print(f"Running a traced 4-node RUBiS burst for {duration_s}s "
          f"({scheme} monitoring) ...")
    app.run(duration_s * SECOND)

    spans = app.sim.spans
    print(f"\nSpan store: {len(spans)} spans from {spans.traces_started} traces "
          f"({spans.dropped} dropped by the bound, {spans.open_spans} open)")

    # -- the slowest completed request ---------------------------------
    requests = [r for r in spans.roots() if r.name == "request" and r.finished]
    if requests:
        worst = max(requests, key=lambda s: s.duration)
        tree = spans.trace(worst.trace_id)
        print(f"\n=== slowest request: {worst.attrs.get('query')} "
              f"rid={worst.attrs.get('rid')} "
              f"({worst.duration / 1e6:.2f} ms) ===")
        print(format_trace(tree))
        path = critical_path(tree, worst)
        print("\ncritical path: " + " -> ".join(
            f"{s.name}({s.duration / 1e3:.0f}us)" for s in path))
        print()
        print(flame(tree, by="component", width=40,
                    title="exclusive time by node/component"))

    # -- one monitoring probe vs the analytic model --------------------
    probes = [p for p in spans.roots() if p.name.startswith("probe:") and p.finished]
    if probes:
        probe = probes[0]
        tree = spans.trace(probe.trace_id)
        print(f"\n=== monitoring probe: {probe.name} "
              f"backend={probe.attrs.get('backend')} ===")
        print(format_trace(tree))
        summary = trace_summary(tree)
        print(f"critical path total: {summary['critical_path_ns'] / 1e3:.1f}us")
        if scheme == "rdma-sync":
            seg = verb_segment_sum(critical_path(tree, probe), "read")
            ana = analytic_rdma_read_ns(cfg, KERN_LOAD_BYTES)
            print(f"verb segments: {seg}ns, analytic model: {ana}ns "
                  f"(contention accounts for any excess)")

    # -- export --------------------------------------------------------
    if out_path:
        n = save_chrome_trace(spans, out_path)
        print(f"\nPerfetto export: {n} events -> {out_path}")


if __name__ == "__main__":
    main()
