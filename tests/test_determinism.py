"""End-to-end determinism: identical seeds must give identical runs."""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def run_once(seed):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = ClusterBuilder(cfg).scheme("socket-sync", interval=ms(50)).build()
    lats = []
    app.scheme.observers.append(lambda r: lats.append(r.latency))
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    stats = app.dispatcher.stats
    return (
        stats.count(),
        stats.mean_response(),
        stats.max_response(),
        tuple(sorted(stats.per_backend_counts().items())),
        app.sim.env.processed_events,
        tuple(lats[:50]),
    )


def run_chaotic(seed):
    """A faulted run: retry policy on, hang + loss + NAKs mid-run."""
    cfg = SimConfig(num_backends=2, master_seed=seed)
    cfg.monitor.probe_timeout = ms(2)
    cfg.monitor.probe_backoff = ms(1)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(50))
           .with_faults("at 500ms hang backend0\n"
                        "at 900ms recover backend0\n"
                        "from 1200ms to 1500ms degrade-link frontend backend1 loss=0.2\n"
                        "from 1200ms to 1500ms verb-nak backend1 p=0.5\n")
           .with_heartbeat(interval=ms(20), timeout=ms(2))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    stats = app.dispatcher.stats
    return (
        stats.count(),
        stats.mean_response(),
        tuple(sorted(stats.per_backend_counts().items())),
        app.sim.env.processed_events,
        tuple(sorted(app.faults.stats().items())),
        tuple(sorted(app.scheme.fault_stats().items())),
        tuple((t.time, t.backend, t.state.value)
              for t in app.heartbeat.transitions),
        app.dispatcher.rerouted_by_health,
    )


def test_same_seed_same_world():
    assert run_once(1234) == run_once(1234)


def test_different_seed_different_world():
    a, b = run_once(1), run_once(2)
    assert a != b


def test_same_seed_same_chaos():
    """Fault injection is replayable: identical seeds, identical outages."""
    a, b = run_chaotic(1234), run_chaotic(1234)
    assert a == b
    # The chaos actually happened (faults applied, probes dropped/NAK'd).
    plane_stats = dict(a[4])
    assert plane_stats["applied"] == 4
    assert plane_stats["dropped_packets"] > 0
    assert plane_stats["naks_injected"] > 0


def test_different_seed_different_chaos():
    """The "faults" RNG stream varies with the master seed like any other."""
    assert run_chaotic(1) != run_chaotic(2)
