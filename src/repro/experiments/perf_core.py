"""Wall-clock performance of the simulator itself (not the paper).

Every other experiment measures *simulated* time; this one measures
how fast the simulator chews through it, so hot-path regressions are
caught by numbers rather than by "the sweep feels slow". Three probes:

* ``event_loop_microbench`` — raw engine throughput in events/sec on a
  chained-timeout loop (the purest event-queue workload: every event is
  a push + pop + process resume, no domain logic);
* ``cluster_wallclock`` — wall seconds and events/sec to simulate a
  fixed slice of a booted N-node cluster with an active monitoring
  fabric (N=512 federated is the headline point);
* ``scalability_wallclock`` — the same probe swept over cluster sizes,
  to show wall cost growing with N and catch super-linear blowups.

:mod:`benchmarks.test_perf_core` runs these against the frozen pre-
overhaul core in ``benchmarks/_legacy_core.py`` and archives the
comparison as ``results/BENCH_core.json``.

Wall-clock numbers are machine-dependent; the archived JSON records
ratios (new vs legacy) and the per-probe throughputs, not absolute
guarantees.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.federation import deploy_federation
from repro.hw.cluster import build_cluster
from repro.sim import engine as _engine
from repro.sim.units import MILLISECOND

DEFAULT_EVENTS: int = 200_000
DEFAULT_SIZES: Sequence[int] = (64, 128, 256, 512)
DEFAULT_DURATION: int = 50 * MILLISECOND


def event_loop_microbench(
    n_events: int = DEFAULT_EVENTS,
    repeats: int = 3,
    engine_module=None,
) -> Dict[str, float]:
    """Events/sec for a chained-timeout loop; best of ``repeats`` runs.

    ``engine_module`` must expose an ``Environment`` with ``timeout``,
    ``process`` and ``run_until_quiet`` — the current core by default,
    or ``benchmarks._legacy_core`` for the frozen pre-overhaul baseline.
    """
    mod = engine_module if engine_module is not None else _engine
    best = float("inf")
    processed = 0
    for _ in range(repeats):
        env = mod.Environment()

        def body():
            for _ in range(n_events):
                yield env.timeout(10)

        env.process(body())
        t0 = time.perf_counter()
        env.run_until_quiet(2**62)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        processed = env.processed_events
    return {
        "n_events": float(n_events),
        "processed_events": float(processed),
        "wall_s": best,
        "events_per_sec": processed / best,
    }


def cluster_wallclock(
    n: int = 512,
    duration: int = DEFAULT_DURATION,
    interval: Optional[int] = None,
    federated: bool = True,
    levels: int = 2,
    repeats: int = 1,
) -> Dict[str, float]:
    """Wall seconds to simulate ``duration`` ns of an N-node cluster.

    The cluster runs bare (no client load) with the monitoring fabric
    active: federated at ``federated=True`` (the regime that makes
    N=512 tractable; ``levels=3`` adds the region tier for N=4096),
    otherwise a flat rdma-sync poller.

    ``repeats`` keeps the fastest run (fresh cluster each time), the
    same best-of convention the microbench uses: a wall benchmark's
    noise is one-sided — OS jitter only ever adds time — so the min is
    the honest estimate of what the core sustains.
    """
    interval = interval if interval is not None else 1 * MILLISECOND
    best: Dict[str, float] = {}
    for _ in range(max(1, repeats)):
        cfg = SimConfig(num_backends=n)
        if federated:
            cfg.federation.enabled = True
            cfg.federation.levels = levels
            cfg.federation.leaf_interval = interval
            cfg.federation.root_interval = interval
        t0 = time.perf_counter()
        sim = build_cluster(cfg)
        if federated:
            deploy_federation(sim)
        else:
            from repro.monitoring import create_scheme

            scheme = create_scheme("rdma-sync", sim, interval=interval)

            def poller(k):
                while True:
                    yield from scheme.query_all(k)
                    yield k.sleep(interval)

            sim.frontend.spawn("flat-poller", poller)
        build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        sim.run(duration)
        run_s = time.perf_counter() - t0
        if not best or run_s < best["run_wall_s"]:
            best = {
                "backends": float(n),
                "sim_duration_ms": duration / 1e6,
                "build_wall_s": build_s,
                "run_wall_s": run_s,
                "processed_events": float(sim.env.processed_events),
                "events_per_sec": sim.env.processed_events / run_s,
            }
    return best


def federation_tiers(
    n: int = 4096,
    duration: int = 20 * MILLISECOND,
    interval: Optional[int] = None,
    levels: int = 3,
) -> Dict[str, float]:
    """Per-tier round cost of a federated run (simulated ns, not wall).

    The scaling claim to hold: every tier's poll round — leaf over its
    members, region over its leaves, root over the regions — completes
    inside the polling period, so the fabric sustains the configured
    rate at ``n`` back-ends. Reports the worst (max) round per tier
    and the period for the feasibility check
    ``worst_tier_round_ns <= period_ns``.
    """
    interval = interval if interval is not None else 1 * MILLISECOND
    cfg = SimConfig(num_backends=n)
    cfg.federation.enabled = True
    cfg.federation.levels = levels
    cfg.federation.leaf_interval = interval
    cfg.federation.root_interval = interval
    t0 = time.perf_counter()
    sim = build_cluster(cfg)
    fedn = deploy_federation(sim)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sim.run(duration)
    run_s = time.perf_counter() - t0
    leaf_worst = max(max(leaf.rounds) for leaf in fedn.leaves)
    region_worst = (max(max(r.rounds) for r in fedn.regions)
                    if fedn.regions else 0)
    root_worst = max(fedn.root.rounds)
    return {
        "backends": float(n),
        "levels": float(levels),
        "num_shards": float(fedn.topology.num_shards),
        "num_regions": float(len(fedn.regions)),
        "period_ns": float(interval),
        "sim_duration_ms": duration / 1e6,
        "build_wall_s": build_s,
        "run_wall_s": run_s,
        "processed_events": float(sim.env.processed_events),
        "events_per_sec": sim.env.processed_events / run_s,
        "leaf_worst_round_ns": float(leaf_worst),
        "region_worst_round_ns": float(region_worst),
        "root_worst_round_ns": float(root_worst),
        "worst_tier_round_ns": float(max(leaf_worst, region_worst, root_worst)),
        "root_coverage": float(len(fedn.root.latest)),
        "root_polls": float(fedn.root.polls),
    }


def scalability_wallclock(
    sizes: Sequence[int] = DEFAULT_SIZES,
    duration: int = DEFAULT_DURATION,
) -> List[Dict[str, float]]:
    """``cluster_wallclock`` swept over cluster sizes (federated)."""
    return [cluster_wallclock(n=n, duration=duration) for n in sizes]


def run(
    n_events: int = DEFAULT_EVENTS,
    sizes: Sequence[int] = DEFAULT_SIZES,
    duration: int = DEFAULT_DURATION,
) -> ExperimentResult:
    """All three probes on the current core, as an ExperimentResult."""
    micro = event_loop_microbench(n_events=n_events)
    sweep = scalability_wallclock(sizes=sizes, duration=duration)
    result = ExperimentResult(
        name="perf_core",
        params={"n_events": n_events, "duration": duration},
        xs=list(sizes),
    )
    result.series = {
        "run_wall_s": [p["run_wall_s"] for p in sweep],
        "events_per_sec": [p["events_per_sec"] for p in sweep],
        "processed_events": [p["processed_events"] for p in sweep],
    }
    result.tables = {"microbench": micro, "sweep": sweep}
    result.notes = (
        f"engine microbench: {micro['events_per_sec'] / 1e3:.0f}k events/s "
        f"({n_events} chained timeouts, best of 3); federated cluster "
        f"wall-clock at {duration / 1e6:.0f} ms simulated per point."
    )
    return result
