"""Capacity curves under open-loop load (extension).

The classic saturation figure the paper's closed-loop RUBiS runs can't
show: offered rate sweeps across the cluster's capacity and we measure
within-deadline goodput and the response-time tail. The knee — the last
offered rate the cluster absorbs — is the capacity; the claim under
test is that better monitoring moves the knee right (the same effect
Fig 9 measures closed-loop as "requests the cluster can admit").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.openloop import OpenLoopWorkload

DEFAULT_RATES: Sequence[int] = (800, 1600, 2400, 3200)

DEFAULTS = dict(
    num_backends=4,
    workers=24,
    deadline=150 * MILLISECOND,
    injectors=96,
)


def run_one(
    scheme_name: str,
    rate_rps: float,
    duration: int = 6 * SECOND,
    poll_interval: int = 50 * MILLISECOND,
    **overrides,
) -> Dict[str, float]:
    params = {**DEFAULTS, **overrides}
    cfg = SimConfig(num_backends=params["num_backends"])
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    app = (ClusterBuilder(cfg)
           .scheme(scheme_name, interval=poll_interval)
           .workers(params["workers"])
           .build())
    wl = OpenLoopWorkload(app.sim, app.dispatcher, rate_rps=rate_rps,
                          deadline=params["deadline"],
                          injectors=params["injectors"])
    wl.start()
    app.run(duration)
    stats = app.dispatcher.stats
    times = np.array(stats.response_times(), dtype=np.float64)
    return {
        "offered_rps": wl.issued / (duration / 1e9),
        "goodput_rps": stats.throughput(duration),
        "timeout_rate": stats.timeout_rate,
        "p95_ms": float(np.percentile(times, 95)) / 1e6 if times.size else 0.0,
    }


def run(
    rates: Sequence[int] = DEFAULT_RATES,
    schemes: Sequence[str] = ("socket-async", "rdma-sync"),
    duration: int = 6 * SECOND,
    **overrides,
) -> ExperimentResult:
    result = ExperimentResult(
        name="capacity",
        params={"rates": list(rates), "duration_ns": duration, **DEFAULTS, **overrides},
        xs=list(rates),
    )
    for scheme_name in schemes:
        goodput: List[float] = []
        timeout: List[float] = []
        p95: List[float] = []
        for rate in rates:
            out = run_one(scheme_name, rate, duration=duration, **overrides)
            goodput.append(out["goodput_rps"])
            timeout.append(out["timeout_rate"])
            p95.append(out["p95_ms"])
        result.series[f"{scheme_name}:goodput_rps"] = goodput
        result.series[f"{scheme_name}:timeout_rate"] = timeout
        result.series[f"{scheme_name}:p95_ms"] = p95
    result.notes = (
        "Within-deadline goodput vs offered open-loop rate. Below the "
        "knee goodput tracks the offered rate for every scheme; past it "
        "the unbounded queues collapse — the knee is the capacity the "
        "monitoring quality buys."
    )
    return result
