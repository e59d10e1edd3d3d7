"""Seed robustness: the headline orderings must not be seed luck.

Each test runs a reduced experiment under two unrelated master seeds and
asserts the *qualitative* claim holds under both.
"""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import create_scheme
from repro.sim.units import ms, seconds, us
from repro.workloads import create_workload
from repro.workloads.rubis import RubisWorkload

SEEDS = (0xC1057E12, 0x5EED5EED)


@pytest.mark.parametrize("seed", SEEDS)
def test_rdma_latency_flat_under_any_seed(seed):
    # Two back-ends so the background comm partners live on backend1,
    # not on the front end doing the measuring.
    cfg = SimConfig(num_backends=2, master_seed=seed)
    sim = build_cluster(cfg)
    create_workload("background", sim, node=sim.backends[0], threads=32)
    scheme = create_scheme("rdma-sync", sim, interval=ms(10))
    lats = []
    scheme.observers.append(lambda r: lats.append(r.latency))

    def poller(k):
        while True:
            yield from scheme.query(k, 0)
            yield k.sleep(ms(10))

    sim.frontend.spawn("p", poller)
    sim.run(seconds(2))
    assert max(lats) - min(lats) < us(15), (min(lats), max(lats))


@pytest.mark.parametrize("seed", SEEDS)
def test_socket_latency_load_dependent_under_any_seed(seed):
    cfg = SimConfig(num_backends=1, master_seed=seed)
    sim = build_cluster(cfg)
    scheme = create_scheme("socket-sync", sim, interval=ms(10))
    lats = []
    scheme.observers.append(lambda r: lats.append(r.latency))

    def poller(k):
        while True:
            yield from scheme.query(k, 0)
            yield k.sleep(ms(10))

    sim.frontend.spawn("p", poller)
    sim.run(seconds(1))
    idle = sum(lats) / len(lats)
    n = len(lats)
    create_workload("background", sim, node=sim.backends[0], threads=32)
    sim.run(seconds(3))
    loaded = lats[n:]
    assert sum(loaded) / len(loaded) > 2 * idle


@pytest.mark.parametrize("seed", SEEDS)
def test_hang_robustness_ordering_under_any_seed(seed):
    """RDMA survives a hung back-end, sockets don't — under any seed."""
    from repro.experiments.fault_matrix import run_cell

    rdma = run_cell("rdma-sync", "hang", seed=seed, fault_at=ms(200),
                    fault_until=ms(500), duration=ms(700))
    sock = run_cell("socket-sync", "hang", seed=seed, fault_at=ms(200),
                    fault_until=ms(500), duration=ms(700))
    rdma_during = rdma["phases"]["during"]
    sock_during = sock["phases"]["during"]
    assert rdma_during["failed"] == 0, rdma_during
    assert rdma_during["max_staleness_ms"] < 20, rdma_during
    assert sock_during["ok"] == 0 and sock_during["failed"] > 0, sock_during
    # And the heartbeat diagnosed the hang under both seeds.
    assert rdma["heartbeat"]["detected_ms"] is not None
    assert rdma["heartbeat"]["final_state"] == "alive"


@pytest.mark.parametrize("seed", SEEDS)
def test_three_level_scale_smoke_n1024_under_any_seed(seed):
    """The 10k-barrier scaling claim isn't seed luck: at N=1024 a
    three-level fabric covers every back-end and holds every tier's
    worst poll round inside the 1 ms period — under unrelated seeds.

    This is the smoke tier of the scaling story; the full N=4096 point
    lives in ``benchmarks/test_perf_core.py`` (archived in
    ``results/BENCH_core.json``).
    """
    from repro.federation import deploy_federation

    cfg = SimConfig(num_backends=1024, master_seed=seed)
    cfg.federation.enabled = True
    cfg.federation.levels = 3
    cfg.federation.leaf_interval = ms(1)
    cfg.federation.root_interval = ms(1)
    sim = build_cluster(cfg)
    fedn = deploy_federation(sim)
    sim.run(ms(5))
    try:
        assert len(fedn.root.latest) == 1024, len(fedn.root.latest)
        assert fedn.root.read_failures == 0
        worst = max(
            max(max(leaf.rounds) for leaf in fedn.leaves),
            max(max(region.rounds) for region in fedn.regions),
            max(fedn.root.rounds),
        )
        assert worst <= ms(1), worst
    finally:
        fedn.stop()


@pytest.mark.parametrize("seed", SEEDS)
def test_rubis_scheme_ordering_under_any_seed(seed):
    """rdma-sync ≥ socket-async on throughput at saturation, any seed."""
    tputs = {}
    for scheme_name in ("socket-async", "rdma-sync"):
        cfg = SimConfig(num_backends=2, master_seed=seed)
        cfg.cpu.wake_preempt_margin = 8
        cfg.cpu.timeslice_ticks = 8
        app = (ClusterBuilder(cfg)
               .scheme(scheme_name, interval=ms(50))
               .workers(24)
               .build())
        wl = RubisWorkload(app.sim, app.dispatcher, num_clients=48,
                           think_time=ms(2), demand_cv=0.4,
                           burst_length=10, idle_factor=8)
        wl.start()
        app.run(seconds(6))
        tputs[scheme_name] = app.dispatcher.stats.throughput(seconds(6))
    assert tputs["rdma-sync"] > 0.97 * tputs["socket-async"], tputs
