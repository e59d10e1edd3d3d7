"""The repository benchmark: a monitored RUBiS cluster at three scales.

Run from the repository root::

    python3 perfbench/run.py --workload n8_planes --seed 1 --seconds 10 --trace 0

Each workload is a RUBiS cluster built through ``ClusterBuilder`` with
the e-RDMA-Sync scheme polling every 1 ms. A run builds it, warms it
up, then simulates a fixed window in short simulated chunks, timing
the host. When the window took less than ``--seconds``, fresh clusters
with the same seed simulate the same window again until it has not.
Every cluster build is timed, each on a freshly collected heap: several
before the first window (the last of them is measured) and one per
repeat.

Host time is priced in rounds of a fixed pure-Python reference loop
(:class:`Reference`), timed just before and just after every timed
stretch. The machines this runs on change speed by up to 2x within
seconds; pricing each stretch at the adjacent reference speed cancels
most of that, so the figures track the simulator rather than its
neighbours.

End-to-end metrics of one run:

* ``host_cost_per_sim_s``: host time to simulate one second, in
  reference rounds (median over windows). Raw wall seconds per
  simulated second are reported by the traced run;
* ``setup_s``: median cluster build time, in reference rounds
  converted to seconds at ``REF_ROUND_S`` per round;
* median and mean RUBiS response time (simulated ms) of the requests
  completed in the first window. They depend only on the seed: a
  change that only speeds the simulator up leaves them identical. The
  tail percentiles are printed, not reported: with the few hundred
  requests an n4096 window holds, p90 to p99 move by 15-30% from seed
  to seed, as the rare heavy query classes fall in or out of the tail.

Every run checks the cluster's results (see :func:`check`) and reports
``correct: false`` on any violation. ``--trace 1`` runs the same
protocol with the per-layer ledgers of ``layers.py`` armed and reports
per-layer host shares, work counts per simulated ms, simulated CPU
utilisation of the front end and the back-ends, the simulated split of
response time into front-end, back-end wait and service, and the
simulated split of monitoring-probe latency from a second, span-traced
cluster of the same workload and seed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from layers import (LAYERS, PROBE_PARTS, CqIrqLog, LayerSampler, cpu_busy,
                    probe_split, work_counts)

SRC = Path(__file__).resolve().parent.parent / "src"
MS = 1_000_000  # ns


@dataclass(frozen=True)
class Scenario:
    """One benchmark workload: a cluster shape plus its client load."""

    backends: int
    #: monitoring tiers: 0 = flat front-end poller, 2 or 3 = federation
    levels: int
    #: closed-loop RUBiS client sessions and their mean think time
    clients: int
    think_ns: int
    #: telemetry, span tracing and the OpenMetrics surface switched on
    planes: bool
    #: cluster builds in set-up; the last one is measured
    builds: int
    #: at least 4 think times: sessions start uniformly within that span
    warmup_ns: int
    #: simulated window whose completed requests give the simulated metrics
    window_ns: int
    #: simulated length of one host-timing sample
    chunk_ns: int
    #: traced run for the probe-latency split: head-sampling rate, window
    split_sample: float
    split_ns: int


# Client load follows one rule. Each back-end gets the paper testbed's
# load (8 sessions per back-end at the RUBiS default 12 ms think time:
# 0.35 req/ms per back-end, back-ends ~40% busy, the front end ~11%)
# unless that would take the single front end past about half of its
# CPU. One front end cannot forward more than ~55 req/ms, so from ~75
# back-ends on the front end is held at ~54% busy (~28-32 req/ms) and
# the load per back-end falls as 1/N. n512 keeps the 12 ms think time
# (one session per back-end). At n4096 a 12 ms think time would need a
# 48 ms session ramp, ~70 s of host time, so 128 sessions at 1 ms give
# the same front-end load after a 5 ms ramp. check() fails a run whose
# front end is 80% busy or more.
#
# Windows are sized so the simulated metrics rest on several hundred to
# several thousand requests and one run takes 15 to 50 s of host time.
SCENARIOS: Dict[str, Scenario] = {
    # The paper's testbed (8 back-ends, flat poller, the RUBiS
    # workload's default 64 client sessions) with every observation
    # plane on: the one workload where telemetry, tracing and the
    # OpenMetrics surface do work.
    "n8_planes": Scenario(
        backends=8, levels=0, clients=64, think_ns=12 * MS, planes=True,
        builds=41, warmup_ns=60 * MS, window_ns=2000 * MS, chunk_ns=20 * MS,
        split_sample=0.1, split_ns=200 * MS),
    # Two-level federation, planes off: monitoring fan-out and the event
    # core dominate.
    "n512_federated": Scenario(
        backends=512, levels=2, clients=512, think_ns=12 * MS, planes=False,
        builds=7, warmup_ns=50 * MS, window_ns=60 * MS, chunk_ns=2 * MS,
        split_sample=0.05, split_ns=6 * MS),
    # Three-level federation, planes off: cluster build cost and the
    # collector's full passes over a heap of several hundred MB show.
    "n4096_three_level": Scenario(
        backends=4096, levels=3, clients=128, think_ns=1 * MS, planes=False,
        builds=5, warmup_ns=5 * MS, window_ns=12 * MS, chunk_ns=MS // 4,
        split_sample=0.02, split_ns=2 * MS),
}

#: share of each timed stretch's host time spent re-timing the reference
REFERENCE_SHARE = 0.1
#: reference timing before a stretch, and the least after one (seconds)
REFERENCE_MIN_S = 0.01
#: seconds per reference round that ``setup_s`` is quoted at: about the
#: round time of one unloaded 2-vCPU x86-64 guest core under CPython 3.11
REF_ROUND_S = 0.7e-3
#: front-end CPU utilisation from which a run counts as saturated
FRONTEND_SATURATED = 0.8


class Reference:
    """A fixed slice of interpreter work shaped like a discrete-event core.

    Generator processes resumed off a binary heap; every event updates
    one record picked pseudo-randomly from a table far larger than the
    CPU caches, as the simulator's per-node state is at large N. Host
    contention slows this loop by a factor close to the simulator's, so
    simulator time divided by reference time cancels most of it.
    """

    #: 2**21 8-byte counters: 16 MiB, and invisible to the cyclic GC
    TABLE_BITS = 21

    def __init__(self) -> None:
        self.table = array("q", bytes(8 << self.TABLE_BITS))

    def round(self) -> int:
        """One round of 1000 events; returns the last sequence number."""
        mask = (1 << self.TABLE_BITS) - 1
        table = self.table

        def proc(i):
            x = i
            while True:
                x = (x * 2654435761 + 17) & mask
                table[x] += 1
                yield (x & 1023) + 1

        heap = [(0, i, proc(i)) for i in range(64)]
        heapq.heapify(heap)
        seq = 64
        for _ in range(1000):
            t, _, p = heapq.heappop(heap)
            seq += 1
            heapq.heappush(heap, (t + next(p), seq, p))
        return seq

    def time(self, budget_s: float) -> float:
        """Seconds per round, averaged over at least ``budget_s`` of rounds.

        The cyclic GC is paused meanwhile: every object a round makes
        is freed by the round, so the collector's schedule for the
        simulator's heap, and the pauses it puts inside timed chunks,
        stay as if the reference never ran.
        """
        rounds = 0
        gc.disable()
        try:
            t0 = time.perf_counter()
            while True:
                self.round()
                rounds += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= budget_s:
                    return elapsed / rounds
        finally:
            gc.enable()


def build_cluster(sc: Scenario, seed: int, trace_sample: float = 0.0):
    """The workload's cluster; ``trace_sample`` forces span tracing on."""
    from repro.api import ClusterBuilder
    from repro.config import SimConfig

    builder = ClusterBuilder(SimConfig(num_backends=sc.backends, master_seed=seed))
    builder.scheme("e-rdma-sync", interval=MS)
    if sc.levels:
        builder.with_federation(levels=sc.levels, leaf_interval=MS,
                                root_interval=MS)
    if sc.planes:
        builder.with_tracing(sample=trace_sample or 0.1).observability()
    elif trace_sample:
        builder.with_tracing(sample=trace_sample)
    builder.workload("rubis", num_clients=sc.clients, think_time=sc.think_ns)
    return builder.build()


class SetupSamples:
    """Timed cluster builds for one workload and seed."""

    def __init__(self, sc: Scenario, seed: int, reference: "Reference") -> None:
        self.sc = sc
        self.seed = seed
        self.reference = reference
        #: build times in reference rounds
        self.rounds: List[float] = []
        #: wall seconds of the latest build
        self.last_s = 0.0

    def build(self):
        """Build one cluster, recording its build time.

        The caller frees the previous cluster (``gc.collect()``) first,
        so neither its memory nor its collection lands in the timed
        region. The build is priced at the mean of the reference
        timings taken just before and just after it.
        """
        budget = max(REFERENCE_MIN_S, REFERENCE_SHARE * self.last_s)
        ref_before = self.reference.time(budget)
        t0 = time.perf_counter()
        cluster = build_cluster(self.sc, self.seed)
        self.last_s = time.perf_counter() - t0
        budget = max(REFERENCE_MIN_S, REFERENCE_SHARE * self.last_s)
        ref_after = self.reference.time(budget)
        self.rounds.append(self.last_s / ((ref_before + ref_after) / 2))
        return cluster

    def sample(self) -> None:
        """Build a cluster only to time it, then free it."""
        self.build()
        gc.collect()


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_window(cluster, sc: Scenario, reference: Reference,
                   sampler=None) -> dict:
    """Warm up, then simulate the window chunk by chunk, timing the host."""
    cluster.run(sc.warmup_ns)
    # Start every window from a freshly collected heap, so the full
    # collections that fall inside it depend on the seed alone, not on
    # how much set-up and reference work ran before it.
    gc.collect()
    before = work_counts(cluster)
    busy_before = cpu_busy(cluster)
    t = sc.warmup_ns
    wall_s = 0.0
    #: host time converted chunk by chunk into reference rounds
    cost_refs = 0.0
    ref_before = reference.time(REFERENCE_MIN_S)
    while t < sc.warmup_ns + sc.window_ns:
        if sampler is not None:
            sampler.start()
        w0 = time.perf_counter()
        t += sc.chunk_ns
        cluster.run(t)
        wall = time.perf_counter() - w0
        if sampler is not None:
            sampler.stop()
        # Each chunk is priced at the mean of the reference timings
        # taken just before and just after it.
        ref_after = reference.time(REFERENCE_SHARE * wall)
        cost_refs += wall / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        wall_s += wall
    sim_s = sc.window_ns / 1e9
    busy_after = cpu_busy(cluster)
    util = {}
    for tier, (ns, cpus) in busy_after.items():
        util[tier] = (ns - busy_before[tier][0]) / (cpus * sc.window_ns)
    return {
        "wall_s": wall_s,
        "wall_s_per_sim_s": wall_s / sim_s,
        "host_cost_per_sim_s": cost_refs / sim_s,
        "before": before,
        "after": work_counts(cluster),
        "cpu_util": util,
    }


def window_requests(cluster, sc: Scenario) -> list:
    lo, hi = sc.warmup_ns, sc.warmup_ns + sc.window_ns
    return [r for r in cluster.dispatcher.stats.completed
            if lo <= r.completed_at < hi]


def check(cluster, sc: Scenario, reqs: list, m: dict) -> List[str]:
    """Invariants a correct run must satisfy; returns the violations."""
    problems: List[str] = []
    stats = cluster.dispatcher.stats
    workload = cluster.workloads[0]
    recorded = stats.count() + stats.rejected_count + stats.timeout_count
    in_flight = workload.issued - recorded
    if not 0 <= in_flight <= sc.clients:
        problems.append(f"{in_flight} requests in flight with {sc.clients} clients")
    if len(reqs) < 100:
        problems.append(f"only {len(reqs)} requests completed in the window")
    for r in reqs:
        if not (r.created_at <= r.dispatched_at <= r.started_at <= r.completed_at):
            problems.append(f"request {r.rid} timestamps out of order")
            break
        if not 0 <= r.backend < sc.backends:
            problems.append(f"request {r.rid} served by unknown back-end {r.backend}")
            break
    view = cluster.dispatcher.monitor.latest
    if len(view) != sc.backends:
        problems.append(f"monitoring view covers {len(view)}/{sc.backends} back-ends")
    if cluster.sim.env.now != sc.warmup_ns + sc.window_ns:
        problems.append("simulated clock did not land on the window end")
    if m["after"]["view_rounds"] <= m["before"]["view_rounds"]:
        problems.append("monitoring view did not advance in the window")
    if m["cpu_util"]["frontend"] >= FRONTEND_SATURATED:
        problems.append(f"front end saturated: {m['cpu_util']['frontend']:.0%} busy")
    if sc.planes:
        from repro.obs.openmetrics import validate_exposition

        issues = validate_exposition(cluster.obs.exposition())
        if issues:
            problems.append(f"OpenMetrics exposition invalid: {issues[0]}")
    return problems


def first_run(cluster, sc: Scenario, reference: Reference,
              sampler=None) -> dict:
    """Measure the first cluster: host figures plus every simulated result.

    Returns plain numbers only, so the cluster can be freed afterwards.
    """
    m = measure_window(cluster, sc, reference, sampler)
    reqs = window_requests(cluster, sc)
    stats = cluster.dispatcher.stats
    m["problems"] = check(cluster, sc, reqs, m)
    m["attempted"] = cluster.workloads[0].issued
    m["failed"] = stats.rejected_count + stats.timeout_count
    m["resp_ms"] = sorted(r.response_time / MS for r in reqs)
    # Response time split at the dispatcher and back-end timestamps;
    # the three parts sum to the response time of each request.
    n = max(1, len(reqs))
    m["split_ms"] = {
        "sim_front_ms": sum(r.dispatched_at - r.created_at for r in reqs) / n / MS,
        "sim_backend_wait_ms": sum(r.started_at - r.dispatched_at for r in reqs) / n / MS,
        "sim_service_ms": sum(r.completed_at - r.started_at for r in reqs) / n / MS,
    }
    return m


def probe_split_run(sc: Scenario, seed: int) -> dict:
    """Mean probe-latency split (µs) from a span-traced twin cluster.

    Span tracing is a pure observer, so the twin simulates exactly the
    measured cluster's run; only its host time differs, which is why it
    is a separate cluster. Its warm-up spans are discarded.
    """
    cluster = build_cluster(sc, seed, trace_sample=sc.split_sample)
    cluster.run(sc.warmup_ns)
    tracer = cluster.sim.spans
    tracer.clear()
    # Probes run on the front end (flat poller) or the federation leaves.
    pollers = [cluster.dispatcher.frontend]
    if cluster.federation is not None:
        pollers += cluster.federation.leaf_nodes
    irq_log = CqIrqLog(pollers)
    cluster.run(sc.warmup_ns + sc.split_ns)
    parts, problems = probe_split(tracer.spans, irq_log, cluster.sim.cfg,
                                  "probe:e-rdma-sync", since=sc.warmup_ns)
    if len(parts["latency"]) < 50:
        problems.append(f"only {len(parts['latency'])} probes traced for the split")
    if tracer.dropped:
        problems.append(f"span store overflowed: {tracer.dropped} spans dropped")
    n = max(1, len(parts["latency"]))
    return {
        "means_us": {name: sum(values) / n / 1e3 for name, values in parts.items()},
        "problems": problems,
    }


def end_to_end_metrics(setups: SetupSamples, reps) -> Dict[str, tuple]:
    resp_ms = reps[0]["resp_ms"]
    return {
        "host_cost_per_sim_s": (
            statistics.median(r["host_cost_per_sim_s"] for r in reps), "ref"),
        "setup_s": (statistics.median(setups.rounds) * REF_ROUND_S, "s"),
        "sim_resp_p50_ms": (quantile(resp_ms, 0.50), "ms"),
        "sim_resp_mean_ms": (statistics.fmean(resp_ms), "ms"),
    }


def per_layer_metrics(sc, reps, sampler, split) -> Dict[str, tuple]:
    first = reps[0]
    counts = {name: value - first["before"][name]
              for name, value in first["after"].items()}
    out: Dict[str, tuple] = {
        "wall_s_per_sim_s": (
            statistics.median(r["wall_s_per_sim_s"] for r in reps), "s/s"),
        "host_us_per_event": (1e6 * first["wall_s"] / counts["events"], "us"),
    }
    shares = sampler.shares()
    for layer in LAYERS:
        out[f"host_share.{layer}"] = (shares[layer], "%")
    window_ms = sc.window_ns / MS
    for name, value in counts.items():
        out[f"{name}_per_sim_ms"] = (value / window_ms, "1/ms")
    for tier, util in first["cpu_util"].items():
        out[f"{tier}_cpu_util"] = (100.0 * util, "%")
    for name, value in first["split_ms"].items():
        out[name] = (value, "ms")
    for name in PROBE_PARTS + ("latency",):
        out[f"probe.{name}_us"] = (split["means_us"][name], "us")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    sc = SCENARIOS[args.workload]
    reference = Reference()
    setups = SetupSamples(sc, args.seed, reference)
    for _ in range(sc.builds - 1):
        setups.sample()
    sampler = LayerSampler(SRC / "repro") if args.trace else None
    try:
        start = time.perf_counter()
        reps = [first_run(setups.build(), sc, reference, sampler)]
        # Identical repeats fill the rest of --seconds; they add host-time
        # and set-up samples, the simulated results already being fixed.
        while time.perf_counter() - start < args.seconds:
            gc.collect()
            reps.append(measure_window(setups.build(), sc, reference, sampler))
    finally:
        if sampler is not None:
            sampler.close()
    first = reps[0]
    problems = list(first["problems"])
    if args.trace:
        gc.collect()
        split = probe_split_run(sc, args.seed)
        problems += split["problems"]
        metrics = per_layer_metrics(sc, reps, sampler, split)
    else:
        metrics = end_to_end_metrics(setups, reps)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    resp_ms = first["resp_ms"]
    tail = "  ".join(f"p{q}={quantile(resp_ms, q / 100):.3f}ms" for q in (90, 95, 99))
    print(f"{args.workload}: seed={args.seed} builds={len(setups.rounds)} "
          f"windows={len(reps)} window_requests={len(resp_ms)}  {tail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # String hashes are salted per process unless PYTHONHASHSEED is set;
    # the salt moves dict and set layouts and with them the host time of
    # a run. Pinning it leaves the seed and the machine as the only
    # differences between runs.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
