"""Telemetry overhead: the metric plane must be free in simulated time.

The paper's core property is that RDMA-Sync monitoring consumes no
back-end CPU. The telemetry plane (``repro.telemetry``) extends the
front end with rings, digests and alert rules — all driven by observer
callbacks, never by simulated events — so enabling it must leave every
simulated outcome *bit-identical*: same seeds → same load-balancing
decisions, same completions, same per-query latencies.

This experiment deploys the RUBiS stack twice per seed (telemetry off /
on), runs the same burst workload, and compares:

* **simulated behaviour** — forwarded counts, per-back-end request
  distribution, completed-request count and total response time must
  match exactly;
* **wall-clock cost** — the telemetry run's real-time overhead;
* **memory bound** — retained samples stay ≤ 3 tiers x capacity x rings
  no matter how many samples streamed through.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.rubis import RubisWorkload

DEFAULTS = dict(
    num_backends=4,
    workers=32,
    clients=48,
    think_time=3 * MILLISECOND,
    demand_cv=0.4,
)


def run_one(
    seed: int,
    with_telemetry: bool,
    scheme_name: str = "rdma-sync",
    duration: int = 4 * SECOND,
    poll_interval: int = 50 * MILLISECOND,
    **overrides,
) -> Dict[str, object]:
    """One RUBiS burst; returns the decision fingerprint + costs."""
    params = {**DEFAULTS, **overrides}
    cfg = SimConfig(num_backends=params["num_backends"], master_seed=seed)
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    builder = (ClusterBuilder(cfg)
               .scheme(scheme_name, interval=poll_interval)
               .workers(params["workers"]))
    if with_telemetry:
        builder.with_telemetry()
    app = builder.build()
    workload = RubisWorkload(
        app.sim, app.dispatcher, num_clients=params["clients"],
        think_time=params["think_time"], demand_cv=params["demand_cv"],
        burst_length=10, idle_factor=8,
    )
    workload.start()
    wall_start = time.perf_counter()
    app.run(duration)
    wall = time.perf_counter() - wall_start

    stats = app.dispatcher.stats
    fingerprint = {
        "forwarded": app.dispatcher.forwarded,
        "per_backend": dict(sorted(stats.per_backend_counts().items())),
        "completed": stats.count(),
        "total_response_ns": sum(stats.response_times()),
        "polls": app.monitor.polls,
    }
    out: Dict[str, object] = {"fingerprint": fingerprint, "wall_s": wall}
    if app.telemetry is not None:
        retained = sum(
            len(ring.raw) + len(ring.mid) + len(ring.coarse)
            for ring in (app.telemetry.store.ring(n) for n in app.telemetry.store.names())
        )
        out.update(
            observations=app.telemetry.observations,
            streamed=app.telemetry.store.total_samples,
            retained=retained,
            memory_bound=app.telemetry.memory_bound(),
            alerts=len(app.telemetry.engine.log),
        )
    return out


def run(
    seeds: Sequence[int] = (1, 2, 3),
    scheme_name: str = "rdma-sync",
    duration: int = 4 * SECOND,
    **overrides,
) -> ExperimentResult:
    """Off/on comparison across seeds."""
    result = ExperimentResult(
        name="telemetry_overhead",
        params={"scheme": scheme_name, "duration": duration, "seeds": list(seeds)},
        xs=list(seeds),
        series={"wall_off_s": [], "wall_on_s": [], "overhead_pct": []},
    )
    identical = True
    rows = []
    for seed in seeds:
        off = run_one(seed, with_telemetry=False, scheme_name=scheme_name,
                      duration=duration, **overrides)
        on = run_one(seed, with_telemetry=True, scheme_name=scheme_name,
                     duration=duration, **overrides)
        same = off["fingerprint"] == on["fingerprint"]
        identical = identical and same
        overhead = (on["wall_s"] - off["wall_s"]) / off["wall_s"] * 100.0
        result.series["wall_off_s"].append(off["wall_s"])
        result.series["wall_on_s"].append(on["wall_s"])
        result.series["overhead_pct"].append(overhead)
        rows.append({
            "seed": seed,
            "identical": same,
            "forwarded": off["fingerprint"]["forwarded"],
            "per_backend_off": off["fingerprint"]["per_backend"],
            "per_backend_on": on["fingerprint"]["per_backend"],
            "observations": on["observations"],
            "streamed": on["streamed"],
            "retained": on["retained"],
            "memory_bound": on["memory_bound"],
            "alerts": on["alerts"],
        })
    result.tables["runs"] = rows
    result.tables["identical"] = identical
    result.notes = (
        "Telemetry is observer-driven on the front end only: enabling it "
        "must not change any simulated outcome. 'identical' compares "
        "forwarded counts, per-backend distributions, completions and "
        "total response time between the off and on runs."
    )
    return result
