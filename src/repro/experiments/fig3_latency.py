"""Figure 3 — monitoring latency vs background load.

Paper: "the monitoring latency of both Socket-Async and Socket-Sync
increase linearly with the increase in the background load. On the other
hand, the monitoring latency of RDMA-Async and RDMA-Sync … stays the
same without getting affected."

One back-end is loaded with a mix of background compute and
communication threads (§5.1.1); the front-end polls it with each scheme
and records per-query latency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.stats import mean
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.hw.cluster import build_cluster
from repro.monitoring.registry import CORE_SCHEME_NAMES, create_scheme
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads import create_workload

#: background thread counts swept on the x axis
DEFAULT_THREADS: Sequence[int] = (0, 8, 16, 32, 48, 64)


def measure_latency(
    scheme_name: str,
    background_threads: int,
    poll_interval: int = 10 * MILLISECOND,
    duration: int = 3 * SECOND,
    warmup: int = 500 * MILLISECOND,
    cfg: Optional[SimConfig] = None,
) -> float:
    """Mean monitoring latency (ns) for one scheme at one load point."""
    cfg = cfg if cfg is not None else SimConfig(num_backends=2)
    sim = build_cluster(cfg)
    target = sim.backends[0]
    create_workload("background", sim, node=target,
                    threads=background_threads)
    scheme = create_scheme(scheme_name, sim, interval=poll_interval)
    latencies: List[int] = []
    scheme.observers.append(lambda record: latencies.append(record.latency))
    # Let the background load and (for async schemes) the first buffer
    # update settle before measuring.
    sim.run(warmup)
    done = []

    def poller(k):
        while True:
            yield from scheme.query(k, 0)
            yield k.sleep(poll_interval)

    sim.frontend.spawn("fig3-poller", poller)
    sim.run(warmup + duration)
    if not latencies:
        raise RuntimeError(
            f"no monitoring queries completed for {scheme_name} "
            f"at {background_threads} background threads"
        )
    return mean(latencies)


def run(
    thread_counts: Sequence[int] = DEFAULT_THREADS,
    schemes: Sequence[str] = tuple(CORE_SCHEME_NAMES),
    duration: int = 3 * SECOND,
) -> ExperimentResult:
    """Full Figure 3 sweep."""
    result = ExperimentResult(
        name="fig3-latency",
        params={"thread_counts": list(thread_counts), "duration_ns": duration},
        xs=list(thread_counts),
    )
    for scheme_name in schemes:
        series: List[float] = []
        for threads in thread_counts:
            series.append(
                measure_latency(scheme_name, threads, duration=duration) / 1000.0
            )  # µs
        result.series[scheme_name] = series
    result.notes = (
        "Latency in µs. Expected shape: socket-* grow with background "
        "threads; rdma-* stay flat (paper Fig 3)."
    )
    return result
