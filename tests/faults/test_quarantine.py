"""Health-aware failover: balancer exclusion + dispatcher quarantine."""

import numpy as np

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.monitoring.heartbeat import NodeHealth
from repro.monitoring.loadinfo import LoadInfo
from repro.server.loadbalancer import LeastLoadedBalancer, RoundRobinBalancer
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def _loads(n):
    return {i: LoadInfo(backend=f"backend{i}", collected_at=0) for i in range(n)}


def _rng():
    return np.random.Generator(np.random.PCG64(42))


def test_least_loaded_exclude_never_picks_quarantined():
    lb = LeastLoadedBalancer(num_backends=3, rng=_rng())
    loads = _loads(3)
    picks = {lb.choose(loads, exclude=[1]) for _ in range(200)}
    assert picks == {0, 2}


def test_least_loaded_exclude_without_loads_rotates_past():
    lb = LeastLoadedBalancer(num_backends=3, rng=_rng())
    picks = [lb.choose({}, exclude=[0]) for _ in range(6)]
    assert 0 not in picks
    assert set(picks) == {1, 2}


def test_least_loaded_exclude_all_falls_back_to_everyone():
    lb = LeastLoadedBalancer(num_backends=2, rng=_rng())
    picks = {lb.choose(_loads(2), exclude=[0, 1]) for _ in range(100)}
    assert picks == {0, 1}  # a wrong pick beats no pick


def test_least_loaded_no_exclude_unchanged_draws():
    """The exclude path must not perturb healthy RNG consumption."""
    a = LeastLoadedBalancer(num_backends=3, rng=_rng())
    b = LeastLoadedBalancer(num_backends=3, rng=_rng())
    loads = _loads(3)
    assert [a.choose(loads) for _ in range(50)] == \
        [b.choose(loads, exclude=[]) for _ in range(50)]


def test_round_robin_exclude_skips_and_resumes():
    rr = RoundRobinBalancer(num_backends=3)
    assert [rr.choose({}) for _ in range(3)] == [0, 1, 2]
    assert [rr.choose({}, exclude=[1]) for _ in range(4)] == [0, 2, 0, 2]
    # Re-admitted on the next healthy rotation.
    assert [rr.choose({}) for _ in range(3)] == [0, 1, 2]


def test_round_robin_exclude_all_falls_back():
    rr = RoundRobinBalancer(num_backends=2)
    assert rr.choose({}, exclude=[0, 1]) in (0, 1)


def test_dispatcher_quarantines_hung_backend_and_readmits():
    cfg = SimConfig(num_backends=2, master_seed=11)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(20))
           .with_faults("at 300ms hang backend0\nat 700ms recover backend0")
           .with_heartbeat(interval=ms(20), timeout=ms(2), hung_after=2)
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()

    app.run(ms(300))
    counts_at_hang = dict(app.dispatcher.stats.per_backend_counts())

    # Give detection one heartbeat round, then measure the quarantine era.
    app.run(ms(400))
    assert app.heartbeat.state[0] is NodeHealth.HUNG
    assert app.heartbeat.quarantined() == [0]
    counts_mid = dict(app.dispatcher.stats.per_backend_counts())

    app.run(seconds(1.2))
    counts_end = dict(app.dispatcher.stats.per_backend_counts())

    # Detection is not instant: a few requests may land on the victim
    # before the second frozen heartbeat, none after.
    leaked = counts_mid.get(0, 0) - counts_at_hang.get(0, 0)
    assert leaked <= 5, (counts_at_hang, counts_mid)
    assert counts_mid.get(1, 0) > counts_at_hang.get(1, 0)
    assert app.dispatcher.rerouted_by_health > 0

    # Re-admitted after recovery: the victim serves again...
    assert app.heartbeat.state[0] is NodeHealth.ALIVE
    assert app.heartbeat.quarantined() == []
    assert counts_end.get(0, 0) > counts_mid.get(0, 0)
    # ...and the cluster as a whole kept making progress throughout.
    assert app.dispatcher.stats.count() > 0


def test_healthy_run_never_reroutes():
    cfg = SimConfig(num_backends=2, master_seed=11)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(20))
           .with_heartbeat(interval=ms(20))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(1))
    assert app.dispatcher.rerouted_by_health == 0
    assert app.heartbeat.quarantined() == []
