"""Properties the federation plane guarantees (see docs/FEDERATION.md).

1. **Bit-identical when disabled**: with ``cfg.federation.enabled``
   False (the default), setting any other federation knob changes
   *nothing* — request stats, per-backend routing, monitoring records
   and the processed-event count are identical to a default-config run.
   The plane draws no RNG stream and schedules no event until deployed.
2. **Deterministic when enabled**: two same-seed federated runs agree
   on every routing count, every merged view and every round time.
3. **Topology assignment is seed-stable pure data** (no RNG draw).
"""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.federation import ShardTopology
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload

SEEDS = (1234, 0x5EED)


def _fingerprint(app, probes):
    stats = app.dispatcher.stats
    return (
        stats.count(),
        stats.mean_response(),
        stats.max_response(),
        tuple(sorted(stats.per_backend_counts().items())),
        app.monitor.polls,
        app.sim.env.processed_events,
        tuple((r.backend, r.issued_at, r.completed_at, r.latency)
              for r in probes),
    )


def _run_app(seed, *, touch_knobs=False, enabled=False):
    cfg = SimConfig(num_backends=4, master_seed=seed)
    if touch_knobs:
        # Every non-enabling knob moved off its default.
        cfg.federation.num_shards = 2
        cfg.federation.leaf_interval = ms(7)
        cfg.federation.root_interval = ms(9)
        cfg.federation.rebalance_on_quarantine = False
    cfg.federation.enabled = enabled
    app = ClusterBuilder(cfg).scheme("rdma-sync", interval=ms(50)).build()
    probes = []
    if app.scheme is not None:  # a federated cluster has no flat scheme
        app.scheme.observers.append(probes.append)
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    return app, probes


@pytest.mark.parametrize("seed", SEEDS)
def test_disabled_federation_is_bit_identical(seed):
    plain, plain_probes = _run_app(seed)
    knobbed, knobbed_probes = _run_app(seed, touch_knobs=True)
    assert knobbed.federation is None
    assert _fingerprint(plain, plain_probes) == _fingerprint(knobbed, knobbed_probes)


@pytest.mark.parametrize("seed", SEEDS)
def test_enabled_federation_is_deterministic(seed):
    a, _ = _run_app(seed, enabled=True)
    b, _ = _run_app(seed, enabled=True)
    assert a.federation is not None and b.federation is not None

    def fed_fingerprint(app):
        stats = app.dispatcher.stats
        fed = app.federation
        return (
            stats.count(),
            stats.mean_response(),
            tuple(sorted(stats.per_backend_counts().items())),
            app.sim.env.processed_events,
            fed.root.epoch,
            tuple(fed.root.rounds),
            tuple(tuple(leaf.rounds) for leaf in fed.leaves),
            tuple(sorted(
                (g, i.collected_at, i.received_at, i.cpu_util)
                for g, i in fed.root.latest.items())),
            tuple(app.balancer.shard_picks),
        )

    assert fed_fingerprint(a) == fed_fingerprint(b)
    # The federated dispatcher consults the root's merged view.
    assert a.dispatcher.last_view_epoch is not None
    assert a.dispatcher.monitor is a.federation.root


def test_topology_assignment_never_draws_randomness():
    a = ShardTopology(23, num_shards=5)
    b = ShardTopology(23, num_shards=5)
    assert a.static_assignment == b.static_assignment == [
        [0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11, 12, 13, 14],
        [15, 16, 17, 18], [19, 20, 21, 22]]
