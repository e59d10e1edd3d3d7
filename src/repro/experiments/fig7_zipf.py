"""Figure 7 — throughput improvement with RUBiS + Zipf co-hosting.

Paper: the cluster hosts RUBiS and a Zipf(α) static-content service
simultaneously; α sweeps 0.25 → 0.9. Total throughput is reported as the
improvement over Socket-Async. At α=0.25 (low temporal locality, very
heterogeneous request costs) RDMA-Sync gains up to ~28 % and e-RDMA-Sync
~35 %; gains shrink as α rises and every server's cache holds the hot
set.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.monitoring.registry import SCHEME_NAMES
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.rubis import RubisWorkload
from repro.workloads.zipf import ZipfWorkload

DEFAULT_ALPHAS: Sequence[float] = (0.25, 0.5, 0.75, 0.9)

DEFAULTS = dict(
    num_backends=4,
    workers=32,
    rubis_clients=48,
    zipf_clients=48,
    think_time=3 * MILLISECOND,
    demand_cv=0.4,
)


def run_one(
    scheme_name: str,
    alpha: float,
    duration: int = 10 * SECOND,
    poll_interval: int = 50 * MILLISECOND,
    **overrides,
) -> float:
    """Total completed-request throughput (rps) for one (scheme, α)."""
    params = {**DEFAULTS, **overrides}
    cfg = SimConfig(num_backends=params["num_backends"])
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    app = (ClusterBuilder(cfg)
           .scheme(scheme_name, interval=poll_interval)
           .workers(params["workers"])
           .build())
    rubis = RubisWorkload(
        app.sim, app.dispatcher,
        num_clients=params["rubis_clients"],
        think_time=params["think_time"],
        demand_cv=params["demand_cv"],
        burst_length=10, idle_factor=8,
    )
    zipf = ZipfWorkload(
        app.sim, app.dispatcher, alpha=alpha,
        num_clients=params["zipf_clients"],
        think_time=params["think_time"] * 2,
    )
    rubis.start()
    zipf.start()
    app.run(duration)
    return app.dispatcher.stats.throughput(duration)


def run(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    schemes: Sequence[str] = tuple(SCHEME_NAMES),
    duration: int = 10 * SECOND,
    **overrides,
) -> ExperimentResult:
    """Full Figure 7 sweep: improvement (%) over socket-async per α."""
    if "socket-async" not in schemes:
        raise ValueError("fig7 needs socket-async as the baseline")
    result = ExperimentResult(
        name="fig7-zipf",
        params={"alphas": list(alphas), "duration_ns": duration, **DEFAULTS, **overrides},
        xs=list(alphas),
    )
    raw: Dict[str, list] = {name: [] for name in schemes}
    for alpha in alphas:
        for name in schemes:
            raw[name].append(run_one(name, alpha, duration=duration, **overrides))
    base = raw["socket-async"]
    for name in schemes:
        result.series[f"{name}:rps"] = raw[name]
        result.series[f"{name}:improvement_pct"] = [
            100.0 * (t / b - 1.0) if b > 0 else 0.0 for t, b in zip(raw[name], base)
        ]
    result.notes = (
        "Throughput improvement over socket-async. Expected: largest "
        "gains for rdma-sync / e-rdma-sync at low α, shrinking as α "
        "rises (paper Fig 7: up to ~28 % / ~35 % at α=0.25)."
    )
    return result
