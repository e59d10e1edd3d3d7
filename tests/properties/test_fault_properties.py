"""Properties the fault plane guarantees (see docs/FAULTS.md).

1. **Bit-identical when idle**: installing the plane with an empty
   schedule changes *nothing* — request stats, per-backend routing,
   monitoring records and even the event count are identical to a run
   without the plane. The hooks are pure attribute checks; the "faults"
   RNG stream is never drawn from.
2. **Retry never reorders**: on a healthy fabric an enabled retry
   policy produces exactly the completions, in exactly the order, at
   exactly the simulated times of the disabled (historical) path.
3. **Recovery drains quarantine**: after every fault window closes, the
   heartbeat re-admits the victim — no backend stays quarantined.
"""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.faults import FaultPlane, FaultSchedule
from repro.hw.cluster import build_cluster
from repro.monitoring import create_scheme
from repro.monitoring.heartbeat import HeartbeatMonitor, NodeHealth
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


def _run_app(seed, *, with_plane, scheme_name="rdma-sync"):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    builder = ClusterBuilder(cfg).scheme(scheme_name, interval=ms(50))
    if with_plane:
        builder.with_faults(FaultSchedule())
    app = builder.build()
    probes = []
    app.scheme.observers.append(probes.append)
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    return app, probes


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme_name", ["rdma-sync", "socket-async"])
def test_empty_schedule_is_bit_identical(seed, scheme_name):
    bare, bare_probes = _run_app(seed, with_plane=False, scheme_name=scheme_name)
    hooked, hooked_probes = _run_app(seed, with_plane=True, scheme_name=scheme_name)
    assert hooked.faults is not None
    assert _fingerprint(bare, bare_probes) == _fingerprint(hooked, hooked_probes)
    # The plane never acted and never drew randomness.
    assert hooked.faults.stats() == {
        "applied": 0, "revoked": 0, "dropped_packets": 0,
        "naks_injected": 0, "mrs_invalidated": 0}


def _probe_trace(seed, scheme_name, enable_retry):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    if enable_retry:
        cfg.monitor.probe_timeout = ms(2)
        cfg.monitor.probe_retries = 2
        cfg.monitor.probe_backoff = ms(1)
    sim = build_cluster(cfg)
    scheme = create_scheme(scheme_name, sim, interval=ms(10))
    probes = []
    scheme.observers.append(probes.append)

    def poller(k):
        # Per-backend queries: the retry wrapper around one probe is the
        # thing under test (query_all legitimately changes shape — the
        # overlapped fan-out cannot time out per-probe).
        while True:
            for i in range(len(sim.backends)):
                yield from scheme.query(k, i)
            yield k.sleep(ms(10))

    sim.frontend.spawn("poller", poller)
    sim.run(seconds(1))
    assert scheme.fault_stats()["failures"] == 0
    assert scheme.fault_stats()["retries"] == 0
    return [(r.backend, r.issued_at, r.completed_at, r.ok) for r in probes]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme_name",
                         ["rdma-sync", "e-rdma-sync", "socket-sync"])
def test_retry_never_reorders_healthy_completions(seed, scheme_name):
    """Enabled timeouts on a healthy fabric: same probes, same times."""
    relaxed = _probe_trace(seed, scheme_name, enable_retry=False)
    bounded = _probe_trace(seed, scheme_name, enable_retry=True)
    assert relaxed == bounded


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("failure", ["hung", "crashed"])
def test_recovery_drains_quarantine(seed, failure):
    sim = build_cluster(SimConfig(num_backends=2, master_seed=seed))
    FaultPlane(sim, FaultSchedule()).install()
    hb = HeartbeatMonitor(sim, interval=ms(20), timeout=ms(2), hung_after=2)
    sim.run(ms(100))
    sim.backends[0].fail(failure)
    sim.run(ms(400))
    assert hb.quarantined() == [0]
    assert hb.healthy_backends() == [1]
    sim.backends[0].recover()
    sim.run(ms(800))
    assert hb.quarantined() == []
    assert hb.state[0] is NodeHealth.ALIVE
    # The round trip is visible in the transition log.
    states = [t.state for t in hb.transitions if t.backend == 0]
    assert states[-1] is NodeHealth.ALIVE
    assert any(s is not NodeHealth.ALIVE for s in states)
