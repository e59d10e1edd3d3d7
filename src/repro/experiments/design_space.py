"""Design-space comparison across all registered schemes (extension).

One table summarising, for every scheme (the paper's five plus the
RDMA-Write-push extension), the four properties that matter:

* query latency at the front end (µs) — idle and loaded back-end;
* data staleness at delivery (ms);
* back-end monitoring threads;
* application perturbation at 4 ms granularity (normalised delay).

This is the paper's §3/§4 qualitative comparison turned quantitative,
with the push design filling out the quadrant the paper leaves open
(one-sided transport *with* a back-end agent).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.stats import mean
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.monitoring.registry import ALL_SCHEME_NAMES
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads import create_workload
from repro.workloads.floatapp import FloatApp


def run(
    schemes: Sequence[str] = tuple(ALL_SCHEME_NAMES),
    poll_interval: int = 50 * MILLISECOND,
    duration: int = 3 * SECOND,
    load_threads: int = 24,
) -> ExperimentResult:
    result = ExperimentResult(
        name="design-space",
        params={"poll_interval": poll_interval, "load_threads": load_threads},
        xs=list(schemes),
    )
    series: Dict[str, List[float]] = {
        "idle_latency_us": [],
        "loaded_latency_us": [],
        "staleness_ms": [],
        "backend_threads": [],
        "perturbation_at_4ms": [],
    }
    for name in schemes:
        # -- latency + staleness, idle then loaded -------------------------
        sim = build_cluster(SimConfig(num_backends=1))
        scheme = create_scheme(name, sim, interval=poll_interval)
        monitor = FrontendMonitor(scheme, interval=poll_interval)
        latencies: List[int] = []
        staleness: List[int] = []
        scheme.observers.append(lambda r: latencies.append(r.latency))
        monitor.observers.append(lambda i, info: staleness.append(info.staleness))
        monitor.start()
        sim.run(duration)
        idle_count = len(latencies)
        idle_lat = mean(latencies)
        create_workload("background", sim, node=0, threads=load_threads)
        sim.run(duration * 2)
        series["idle_latency_us"].append(idle_lat / 1000.0)
        series["loaded_latency_us"].append(mean(latencies[idle_count:]) / 1000.0)
        series["staleness_ms"].append(mean(staleness[3:]) / 1e6)
        series["backend_threads"].append(float(scheme.backend_threads))

        # -- perturbation at fine granularity --------------------------------
        sim = build_cluster(SimConfig(num_backends=1))
        scheme = create_scheme(name, sim, interval=4 * MILLISECOND)
        monitor = FrontendMonitor(scheme, interval=4 * MILLISECOND)
        monitor.start()
        app = FloatApp(sim.backends[0], total_compute=200 * MILLISECOND)
        app.start()
        sim.run(2 * SECOND)
        series["perturbation_at_4ms"].append(
            app.normalized_delay() if app.finished else float("nan"))
    result.series = series
    result.notes = (
        "The design space: two-sided transports pay loaded-latency; "
        "asynchronous designs pay staleness; any back-end agent pays "
        "perturbation. Only RDMA-Sync (and e-RDMA-Sync) sit at the "
        "origin on all axes — the paper's §4 argument, quantified."
    )
    return result
