"""Ablations beyond the paper (DESIGN.md §8).

Each ablation isolates one design choice the paper's story rests on:

* ``irq_affinity``  — does Fig 6's CPU1 asymmetry really come from NIC
  interrupt affinity? (Disable affinity → asymmetry should vanish.)
* ``scheduler_wakeups`` — how much of the socket schemes' latency comes
  from 2.4-style sticky wakeups and kernel non-preemption?
* ``multicast_push``  — the §6 discussion: hardware-multicast status
  pushes scale well but use channel semantics, costing back-end CPU
  again; compare the push path against RDMA-read polling.
* ``lb_weights``  — sensitivity of the WebSphere score's weights.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.hw.cluster import build_cluster
from repro.monitoring import create_scheme
from repro.monitoring.loadinfo import LoadCalculator
from repro.sim.units import MILLISECOND, SECOND
from repro.transport.multicast import MulticastGroup
from repro.workloads import create_workload
from repro.workloads.floatapp import FloatApp
from repro.workloads.rubis import RubisWorkload


# ---------------------------------------------------------------------------
# irq affinity
# ---------------------------------------------------------------------------
def run_irq_affinity(duration: int = 4 * SECOND) -> ExperimentResult:
    """Pending-interrupt asymmetry with and without NIC IRQ affinity."""
    result = ExperimentResult(name="ablation-irq-affinity", xs=["affinity", "round-robin"])
    means: Dict[str, list] = {"cpu0": [], "cpu1": []}
    for affinity in (1, -1):
        cfg = SimConfig(num_backends=2)
        cfg.irq.nic_irq_affinity = affinity
        sim = build_cluster(cfg)
        target = sim.backends[0]
        create_workload("background", sim, node=target, threads=16,
                        comm_fraction=1.0, message_interval=3 * MILLISECOND,
                        burst=16)
        scheme = create_scheme("e-rdma-sync", sim, interval=5 * MILLISECOND)
        samples = []

        def poller(k, scheme=scheme, samples=samples):
            while True:
                info = yield from scheme.query(k, 0)
                samples.append(list(info.irq_pending or [0, 0]))
                yield k.sleep(5 * MILLISECOND)

        sim.frontend.spawn("ablation-poller", poller)
        sim.run(duration)
        n = max(1, len(samples))
        means["cpu0"].append(sum(s[0] for s in samples) / n)
        means["cpu1"].append(sum(s[1] for s in samples) / n)
    result.series = means
    result.notes = (
        "With affinity, CPU1 absorbs the NIC interrupt pressure; with "
        "round-robin delivery the asymmetry collapses."
    )
    return result


# ---------------------------------------------------------------------------
# scheduler wakeup semantics
# ---------------------------------------------------------------------------
def run_scheduler_wakeups(duration: int = 3 * SECOND) -> ExperimentResult:
    """Socket-sync monitoring latency under different kernel semantics."""
    variants = [
        ("2.4-faithful", dict()),
        ("no-sticky", dict(sticky_wakeups=False)),
        ("preemptible-kernel", dict(kernel_nonpreemptible=False)),
        ("no-boost", dict(net_wake_boost=False)),
    ]
    result = ExperimentResult(name="ablation-scheduler", xs=[name for name, _ in variants])
    latencies = []
    for _name, overrides in variants:
        cfg = SimConfig(num_backends=2)
        for key, value in overrides.items():
            setattr(cfg.cpu, key, value)
        sim = build_cluster(cfg)
        target = sim.backends[0]
        create_workload("background", sim, node=target, threads=32,
                        comm_fraction=0.5)
        scheme = create_scheme("socket-sync", sim, interval=10 * MILLISECOND)
        lats = []
        scheme.observers.append(lambda r, lats=lats: lats.append(r.latency))

        def poller(k, scheme=scheme):
            while True:
                yield from scheme.query(k, 0)
                yield k.sleep(10 * MILLISECOND)

        sim.frontend.spawn("ablation-poller", poller)
        sim.run(duration)
        latencies.append(sum(lats) / len(lats) / 1000.0 if lats else 0.0)
    result.series["socket_sync_latency_us"] = latencies
    result.notes = (
        "Mean socket-sync monitoring latency (µs) under a loaded "
        "back-end for each kernel-semantics variant."
    )
    return result


# ---------------------------------------------------------------------------
# multicast push vs RDMA-read poll (the §6 discussion)
# ---------------------------------------------------------------------------
def run_multicast_push(
    interval: int = 4 * MILLISECOND,
    app_compute: int = 200 * MILLISECOND,
) -> ExperimentResult:
    """Back-end perturbation: multicast status push vs RDMA-Sync poll.

    The push design needs a back-end thread that reads /proc and
    publishes over channel semantics — at fine granularity this costs
    the back-end CPU exactly like the socket schemes, which is the
    paper's argument for staying one-sided.
    """
    result = ExperimentResult(name="ablation-multicast", xs=["multicast-push", "rdma-sync-poll"])
    delays = []

    # Variant A: back-end pushes over multicast every `interval`.
    cfg = SimConfig(num_backends=2)
    sim = build_cluster(cfg)
    target = sim.backends[0]
    channel = MulticastGroup("status")
    channel.subscribe(sim.frontend)
    channel.subscribe(target)
    calc = LoadCalculator(target.name)

    def pusher(k):
        while True:
            stats = yield from target.procfs.read_stat(k)
            info = calc.compute(stats)
            yield from channel.publish(k, info, 64)
            yield k.sleep(interval)

    target.spawn("status-push", pusher)
    app = FloatApp(target, total_compute=app_compute)
    app.start()
    sim.run(app_compute * 6 + SECOND)
    delays.append(app.normalized_delay())

    # Variant B: frontend polls with RDMA-Sync at the same granularity.
    cfg = SimConfig(num_backends=2)
    sim = build_cluster(cfg)
    target = sim.backends[0]
    scheme = create_scheme("rdma-sync", sim, interval=interval)

    def poller(k):
        while True:
            yield from scheme.query(k, 0)
            yield k.sleep(interval)

    sim.frontend.spawn("poller", poller)
    app = FloatApp(target, total_compute=app_compute)
    app.start()
    sim.run(app_compute * 6 + SECOND)
    delays.append(app.normalized_delay())

    result.series["normalized_app_delay"] = delays
    result.notes = (
        "Normalised float-app delay on the monitored back-end. The "
        "multicast push pays /proc + channel-semantics costs on the "
        "back-end; the RDMA-Sync poll pays nothing."
    )
    return result


# ---------------------------------------------------------------------------
# admission control with impatient clients (§1's revenue argument)
# ---------------------------------------------------------------------------
def run_admission_goodput(
    duration: int = 6 * SECOND,
    deadline: int = 150 * MILLISECOND,
) -> ExperimentResult:
    """Goodput with/without admission control under overload.

    Clients abandon responses slower than ``deadline`` (work wasted —
    the paper's §1 lost-revenue case). Admission control that rejects
    early during overload converts would-be timeouts into fast errors;
    its quality depends on the monitored load being current.
    """
    def stack(cfg):
        return (ClusterBuilder(cfg)
                .scheme("rdma-sync", interval=50 * MILLISECOND)
                .workers(24))

    variants = [
        ("no-admission", stack),
        ("admission", lambda cfg: stack(cfg).with_admission(max_score=0.65)),
    ]
    result = ExperimentResult(name="ablation-admission", xs=[n for n, _ in variants])
    goodput, timeout_rate, rejected = [], [], []
    for _name, builder in variants:
        cfg = SimConfig(num_backends=2)
        cfg.cpu.wake_preempt_margin = 8
        cfg.cpu.timeslice_ticks = 8
        app = builder(cfg).build()
        wl = RubisWorkload(app.sim, app.dispatcher, num_clients=96,
                           think_time=1 * MILLISECOND, demand_cv=0.4,
                           burst_length=10, idle_factor=4,
                           deadline=deadline)
        wl.start()
        app.run(duration)
        stats = app.dispatcher.stats
        goodput.append(stats.throughput(duration))
        timeout_rate.append(stats.timeout_rate)
        rejected.append(float(stats.rejected_count))
    result.series["goodput_rps"] = goodput
    result.series["timeout_rate"] = timeout_rate
    result.series["rejected"] = rejected
    result.notes = (
        "Within-deadline completions per second under overload, with "
        "impatient clients. With closed-loop (self-limiting) clients the "
        "finding is that admission control sheds a large volume of load "
        "early — fast feedback instead of deadline misses — while "
        "keeping goodput essentially unchanged; open-loop arrivals would "
        "be needed for a goodput win."
    )
    return result


# ---------------------------------------------------------------------------
# load-balancer weight sensitivity
# ---------------------------------------------------------------------------
def run_lb_weights(
    duration: int = 6 * SECOND,
    variants: Optional[Sequence] = None,
) -> ExperimentResult:
    """RUBiS throughput under different WebSphere weight settings."""
    if variants is None:
        variants = [
            ("default", dict()),
            ("cpu-only", dict(cpu=1.0, runq=0.0, connections=0.0, memory=0.0)),
            ("conn-only", dict(cpu=0.0, runq=0.0, connections=1.0, memory=0.0)),
            ("no-inflight", dict(inflight=0.0)),
        ]
    result = ExperimentResult(name="ablation-lb-weights", xs=[name for name, _ in variants])
    rps, mean_ms = [], []
    for _name, overrides in variants:
        cfg = SimConfig(num_backends=4)
        cfg.cpu.wake_preempt_margin = 8
        cfg.cpu.timeslice_ticks = 8
        app = (ClusterBuilder(cfg)
               .scheme("rdma-sync", interval=50 * MILLISECOND)
               .workers(24)
               .build())
        for key, value in overrides.items():
            setattr(app.balancer.weights, key, value)
        wl = RubisWorkload(app.sim, app.dispatcher, num_clients=64,
                           think_time=3 * MILLISECOND, demand_cv=0.4,
                           burst_length=10, idle_factor=8)
        wl.start()
        app.run(duration)
        stats = app.dispatcher.stats
        rps.append(stats.throughput(duration))
        mean_ms.append(stats.mean_response() / 1e6)
    result.series["throughput_rps"] = rps
    result.series["mean_response_ms"] = mean_ms
    result.notes = "Sensitivity of RUBiS throughput to LB score weights."
    return result
