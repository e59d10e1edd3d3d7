"""Tracing overhead: the span plane must be free in simulated time.

Mirror of :mod:`repro.experiments.telemetry_overhead` for the causal
span tracer (``repro.tracing``). Every instrumentation hook is pure
observer bookkeeping — no events scheduled, no task CPU charged — so
enabling tracing must leave every simulated outcome *bit-identical*:
same seeds → same load-balancing decisions, same completions, same
per-query latencies. This experiment deploys the RUBiS stack three ways
per seed (tracing off / on / on-at-10%-sampling), runs the same burst
workload, and compares:

* **simulated behaviour** — forwarded counts, per-back-end request
  distribution, completed-request count and total response time must
  match exactly across all three;
* **memory bound** — the span store never retains more than
  ``max_spans`` spans; the rest are counted in ``dropped``;
* **wall-clock cost** — the real-time price of recording every span,
  and how head sampling reduces it;
* **export determinism** — two traced runs of the same seed serialise
  byte-identical Chrome-trace JSON.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.sim.units import MILLISECOND, SECOND
from repro.tracing import chrome_trace_json
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
    with_tracing: bool,
    trace_sample: float = 1.0,
    max_spans: Optional[int] = None,
    scheme_name: str = "rdma-sync",
    duration: int = 4 * SECOND,
    poll_interval: int = 50 * MILLISECOND,
    export: bool = False,
    **overrides,
) -> Dict[str, object]:
    """One RUBiS burst; returns the decision fingerprint + tracing costs."""
    params = {**DEFAULTS, **overrides}
    cfg = SimConfig(num_backends=params["num_backends"], master_seed=seed)
    cfg.cpu.wake_preempt_margin = 8
    cfg.cpu.timeslice_ticks = 8
    if max_spans is not None:
        cfg.tracing.max_spans = max_spans
    builder = (ClusterBuilder(cfg)
               .scheme(scheme_name, interval=poll_interval)
               .workers(params["workers"]))
    if with_tracing:
        builder.with_tracing(sample=trace_sample)
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
    spans = app.sim.spans
    if spans is not None and spans.enabled:
        out.update(
            spans=len(spans),
            dropped=spans.dropped,
            unsampled=spans.unsampled,
            traces=spans.traces_started,
            open_spans=spans.open_spans,
            max_spans=spans.max_spans,
        )
        if export:
            out["export_json"] = chrome_trace_json(spans)
    return out


def run(
    seeds: Sequence[int] = (1, 2, 3),
    scheme_name: str = "rdma-sync",
    duration: int = 4 * SECOND,
    sample_rate: float = 0.1,
    **overrides,
) -> ExperimentResult:
    """Off / on / sampled comparison across seeds."""
    result = ExperimentResult(
        name="trace_overhead",
        params={"scheme": scheme_name, "duration": duration,
                "seeds": list(seeds), "sample_rate": sample_rate},
        xs=list(seeds),
        series={"wall_off_s": [], "wall_on_s": [], "wall_sampled_s": [],
                "overhead_pct": []},
    )
    identical = True
    rows = []
    for seed in seeds:
        off = run_one(seed, with_tracing=False, scheme_name=scheme_name,
                      duration=duration, **overrides)
        on = run_one(seed, with_tracing=True, scheme_name=scheme_name,
                     duration=duration, export=True, **overrides)
        on2 = run_one(seed, with_tracing=True, scheme_name=scheme_name,
                      duration=duration, export=True, **overrides)
        sampled = run_one(seed, with_tracing=True, trace_sample=sample_rate,
                          scheme_name=scheme_name, duration=duration,
                          **overrides)
        same = (off["fingerprint"] == on["fingerprint"]
                == sampled["fingerprint"])
        deterministic = on["export_json"] == on2["export_json"]
        identical = identical and same and deterministic
        overhead = (on["wall_s"] - off["wall_s"]) / off["wall_s"] * 100.0
        result.series["wall_off_s"].append(off["wall_s"])
        result.series["wall_on_s"].append(on["wall_s"])
        result.series["wall_sampled_s"].append(sampled["wall_s"])
        result.series["overhead_pct"].append(overhead)
        rows.append({
            "seed": seed,
            "identical": same,
            "deterministic_export": deterministic,
            "forwarded": off["fingerprint"]["forwarded"],
            "per_backend_off": off["fingerprint"]["per_backend"],
            "per_backend_on": on["fingerprint"]["per_backend"],
            "spans": on["spans"],
            "dropped": on["dropped"],
            "max_spans": on["max_spans"],
            "traces": on["traces"],
            "spans_sampled": sampled["spans"],
            "unsampled": sampled["unsampled"],
        })
    result.tables["runs"] = rows
    result.tables["identical"] = identical
    result.notes = (
        "Tracing is observer bookkeeping only: enabling it (at any "
        "sampling rate) must not change any simulated outcome, and two "
        "traced runs of a seed must export byte-identical Chrome-trace "
        "JSON. 'identical' compares forwarded counts, per-backend "
        "distributions, completions and total response time across "
        "off/on/sampled runs."
    )
    return result
