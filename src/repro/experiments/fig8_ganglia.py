"""Figure 8 — RUBiS response time with Ganglia + fine-grained gmetric.

Paper: RUBiS runs (placed with e-RDMA-Sync, the best scheme from Table
1) while Ganglia monitors the cluster and **gmetric** performs
fine-grained collection through one of the four schemes at a threshold
granularity of 1–16 ms. With Socket-* collection at 1–4 ms the paper's
maximum response time for SearchItemsInCategories/Browse queries blows
up to ~250 ms; with RDMA-* collection it is unaffected.

Reproduction note: the *direction* reproduces robustly — socket
collection at 1 ms measurably inflates the response-time tail while
RDMA collection is flat at every granularity — but the magnitude is
smaller than the paper's (≈1.1–1.2× tail inflation rather than ~7×).
Our 2.4-flavoured scheduler recovers starved tasks at every epoch
recalculation, bounding the worst case; see EXPERIMENTS.md. We report
the stable tail percentiles (p95/p99 over thousands of requests) rather
than the single-sample maximum, which at these run lengths is noise.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.ganglia.gmetric import Gmetric
from repro.ganglia.gmond import Gmond
from repro.monitoring.registry import CORE_SCHEME_NAMES, create_scheme
from repro.sim.units import MILLISECOND, SECOND
from repro.transport.multicast import MulticastGroup
from repro.workloads.rubis import RubisWorkload

DEFAULT_GRANULARITIES_MS: Sequence[int] = (1, 4, 16, 64)

#: the two queries the paper plots
TRACKED_QUERIES = ("SearchItemsReg", "Browse")

DEFAULTS = dict(
    num_backends=2,
    workers=24,
    num_clients=32,
    think_time=4 * MILLISECOND,
    demand_cv=0.4,
)


def run_one(
    gmetric_scheme: str,
    granularity: int,
    duration: int = 10 * SECOND,
    gmetric_mode: str = "frontend",
    **overrides,
) -> Dict[str, float]:
    """Tail statistics (ms) of the tracked queries for one configuration."""
    params = {**DEFAULTS, **overrides}
    cfg = SimConfig(num_backends=params["num_backends"])
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    # RUBiS is balanced with e-RDMA-Sync (the Table 1 winner), as in the
    # paper; gmetric's *collection* scheme is the variable.
    app = (ClusterBuilder(cfg)
           .scheme("e-rdma-sync", interval=50 * MILLISECOND)
           .workers(params["workers"])
           .build())
    channel = MulticastGroup("ganglia")
    gmonds = [Gmond(node, channel, interval=1 * SECOND) for node in app.sim.backends]
    collector = create_scheme(gmetric_scheme, app.sim, interval=granularity)
    gmetric = Gmetric(collector, channel, granularity=granularity, mode=gmetric_mode)
    workload = RubisWorkload(
        app.sim, app.dispatcher,
        num_clients=params["num_clients"],
        think_time=params["think_time"],
        demand_cv=params["demand_cv"],
        burst_length=10, idle_factor=8,
    )
    workload.start()
    app.run(duration)
    stats = app.dispatcher.stats
    out: Dict[str, float] = {}
    pooled = []
    for q in TRACKED_QUERIES:
        times = np.array(stats.response_times(q), dtype=np.float64) / 1e6
        pooled.append(times)
        out[f"{q}:avg"] = float(times.mean()) if times.size else 0.0
        out[f"{q}:max"] = float(times.max()) if times.size else 0.0
    all_times = np.concatenate(pooled) if pooled else np.array([])
    out["avg"] = float(all_times.mean()) if all_times.size else 0.0
    out["p95"] = float(np.percentile(all_times, 95)) if all_times.size else 0.0
    out["p99"] = float(np.percentile(all_times, 99)) if all_times.size else 0.0
    out["max"] = float(all_times.max()) if all_times.size else 0.0
    out["gmetric_published"] = float(gmetric.published)
    out["gmond_announcements"] = float(sum(g.announcements for g in gmonds))
    return out


def run(
    granularities_ms: Sequence[int] = DEFAULT_GRANULARITIES_MS,
    schemes: Sequence[str] = tuple(CORE_SCHEME_NAMES),
    duration: int = 10 * SECOND,
    **overrides,
) -> ExperimentResult:
    """Full Figure 8 sweep."""
    result = ExperimentResult(
        name="fig8-ganglia",
        params={"granularities_ms": list(granularities_ms),
                "duration_ns": duration, **DEFAULTS, **overrides},
        xs=list(granularities_ms),
    )
    for scheme_name in schemes:
        for key in ("avg", "p95", "p99"):
            result.series[f"{scheme_name}:{key}_ms"] = []
        for g_ms in granularities_ms:
            out = run_one(scheme_name, g_ms * MILLISECOND, duration=duration, **overrides)
            for key in ("avg", "p95", "p99"):
                result.series[f"{scheme_name}:{key}_ms"].append(out[key])
    result.notes = (
        "Pooled response-time statistics (ms) of SearchItemsReg+Browse "
        "vs gmetric collection granularity. Expected: socket-* tails "
        "inflate at 1–4 ms; rdma-* flat at every granularity (paper "
        "Fig 8, direction; magnitude is smaller — see module docstring)."
    )
    return result
