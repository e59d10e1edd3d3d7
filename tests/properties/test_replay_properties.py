"""Properties the replay/scaler planes guarantee.

1. **Deterministic when on**: two same-seed elastic runs agree on every
   scale event, evaluation and request outcome; same for trace replays.
2. **Synthesis is stream-isolated**: generating a trace off a sim
   never perturbs an unrelated named stream.

Both planes take their knobs only as constructor keywords, so there is
no config knob that could perturb a run with the plane off.
"""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload

SEEDS = (1234, 0x5EED)


def _subscribe(app):
    """Record every probe and scaler event of ``app`` from here on."""
    seen = []
    app.scheme.observers.append(
        lambda r: seen.append((r.backend, r.issued_at, r.completed_at, r.latency)))
    if app.scaler is not None:
        app.scaler.observers.append(lambda e: seen.append(tuple(sorted(e.items()))))
    return seen


def _fingerprint(app, seen):
    stats = app.dispatcher.stats
    return (
        stats.count(),
        stats.mean_response(),
        stats.max_response(),
        tuple(sorted(stats.per_backend_counts().items())),
        app.monitor.polls,
        app.sim.env.processed_events,
        tuple(seen),
    )


def _run_elastic(seed):
    cfg = SimConfig(num_backends=4, master_seed=seed)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(50))
           .with_elastic_scaler(interval=ms(13), high_water=0.6,
                                low_water=0.1, initial_active=2,
                                min_active=2, max_active=3, up_after=2,
                                down_after=5, cooldown=ms(200))
           .build())
    seen = _subscribe(app)
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    return app, seen


@pytest.mark.parametrize("seed", SEEDS)
def test_elastic_runs_are_deterministic(seed):
    runs = [_run_elastic(seed) for _ in range(2)]
    assert _fingerprint(*runs[0]) == _fingerprint(*runs[1])
    events = [tuple((e.time, e.direction, e.backend, e.active_after)
                    for e in app.scaler.events) for app, _ in runs]
    assert events[0] == events[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_is_deterministic(seed):
    from repro.workloads import create_workload
    from repro.workloads.synth import synthesize_flash_crowd

    trace = synthesize_flash_crowd(seconds(1), 150.0)
    prints = []
    for _ in range(2):
        cfg = SimConfig(num_backends=2, master_seed=seed)
        app = ClusterBuilder(cfg).scheme("rdma-sync").build()
        seen = _subscribe(app)
        replayer = create_workload("replay", app.sim, app.dispatcher,
                                   trace=trace, load_scale=1.5)
        replayer.start()
        app.run(seconds(2))
        prints.append((replayer.issued, _fingerprint(app, seen)))
    assert prints[0] == prints[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_synthesis_never_perturbs_other_streams(seed):
    from repro.hw.cluster import build_cluster
    from repro.workloads.synth import synthesize_diurnal

    sims = [build_cluster(SimConfig(num_backends=2, master_seed=seed))
            for _ in range(2)]
    synthesize_diurnal(seconds(1), 50, 300, sim=sims[0])
    draws = [sim.rng.stream("probe:other").integers(0, 1 << 30, 16).tolist()
             for sim in sims]
    assert draws[0] == draws[1]
