"""Table 1 — RUBiS per-query response times under the five schemes.

Paper: eight back-ends serve RUBiS behind the WebSphere-style balancer;
per-query-class average and maximum response times are reported for
Socket-Async, Socket-Sync, RDMA-Async, RDMA-Sync and e-RDMA-Sync.
Expected shape: RDMA-Sync and e-RDMA-Sync lowest on both columns, with
the biggest wins on maximum response time (the paper quotes ~90 % on
Browse-class queries), and e-RDMA-Sync ≤ RDMA-Sync throughout.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.stats import summarize
from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.monitoring.registry import SCHEME_NAMES
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.rubis import RUBIS_QUERIES, RubisWorkload

#: calibrated load point (see DESIGN.md §5 / the calibration history):
#: ~85-90 % busy back-ends with bursty sessions, where monitoring
#: freshness and perturbation actually matter
DEFAULTS = dict(
    num_backends=4,
    workers=32,
    num_clients=96,
    think_time=3 * MILLISECOND,
    demand_cv=0.4,
    burst_length=10,
    idle_factor=8,
)


def run_one_scheme(
    scheme_name: str,
    duration: int = 10 * SECOND,
    poll_interval: int = 50 * MILLISECOND,
    **overrides,
) -> Dict[str, Dict[str, float]]:
    """One RUBiS run; returns {query: {avg_ms, max_ms, count}} + totals."""
    params = {**DEFAULTS, **overrides}
    cfg = SimConfig(num_backends=params["num_backends"])
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    app = (ClusterBuilder(cfg)
           .scheme(scheme_name, interval=poll_interval)
           .workers(params["workers"])
           .build())
    workload = RubisWorkload(
        app.sim, app.dispatcher,
        num_clients=params["num_clients"],
        think_time=params["think_time"],
        demand_cv=params["demand_cv"],
        burst_length=params["burst_length"],
        idle_factor=params["idle_factor"],
    )
    workload.start()
    app.run(duration)
    stats = app.dispatcher.stats
    rows: Dict[str, Dict[str, float]] = {}
    for q in RUBIS_QUERIES:
        times_ms = [t / 1e6 for t in stats.response_times(q.name)]
        s = summarize(times_ms)
        rows[q.name] = {"avg_ms": s["mean"], "p99_ms": s["p99"],
                        "max_ms": s["max"], "count": s["count"]}
    all_ms = [t / 1e6 for t in stats.response_times()]
    s = summarize(all_ms)
    rows["__all__"] = {
        "avg_ms": s["mean"],
        "p99_ms": s["p99"],
        "max_ms": s["max"],
        "count": s["count"],
        "throughput_rps": stats.throughput(duration),
    }
    return rows


def run(
    schemes: Sequence[str] = tuple(SCHEME_NAMES),
    duration: int = 10 * SECOND,
    **overrides,
) -> ExperimentResult:
    """Full Table 1 reproduction."""
    result = ExperimentResult(
        name="table1-rubis",
        params={"duration_ns": duration, **DEFAULTS, **overrides},
        xs=[q.name for q in RUBIS_QUERIES],
    )
    for scheme_name in schemes:
        rows = run_one_scheme(scheme_name, duration=duration, **overrides)
        result.tables[scheme_name] = rows
        result.series[f"{scheme_name}:avg_ms"] = [
            rows[q.name]["avg_ms"] for q in RUBIS_QUERIES
        ]
        result.series[f"{scheme_name}:max_ms"] = [
            rows[q.name]["max_ms"] for q in RUBIS_QUERIES
        ]
    result.notes = (
        "Per-query avg/max response time (ms) per scheme. Expected: "
        "rdma-sync / e-rdma-sync lowest, largest relative win on max "
        "(paper Table 1)."
    )
    return result
