"""Congestion-plane invariants: default-off transparency and determinism.

The two load-bearing guarantees of the subsystem:

1. ``cfg.congestion.enabled = False`` (the default) is *perfectly*
   transparent — same-seed runs produce bit-identical fingerprints even
   when every other congestion knob has been scribbled on, no plane
   object is built, and the NIC ``cc_*`` counters never move.
2. ``enabled = True`` stays deterministic — the plane draws only from
   its own seeded RNG stream, so repeating a run reproduces every
   metric exactly.
"""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.congestion_incast import run_incast
from repro.hw.cluster import build_cluster
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def _fingerprint(cfg):
    app = ClusterBuilder(cfg).scheme("rdma-sync", interval=ms(50)).build()
    lats = []
    app.scheme.observers.append(lambda r: lats.append(r.latency))
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(1))
    s = app.dispatcher.stats
    return (s.count(), repr(s.mean_response()), s.max_response(),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events,
            tuple(lats[:50]))


def test_disabled_plane_is_bit_identical():
    """Touching every congestion knob while leaving enabled=False must
    not perturb a single event: the fingerprints match exactly."""
    base = _fingerprint(SimConfig(num_backends=2, master_seed=424242))
    cfg = SimConfig(num_backends=2, master_seed=424242)
    cc = cfg.congestion
    assert not cc.enabled
    cc.ecn_kmin = 1
    cc.ecn_kmax = 2
    cc.ecn_pmax = 1.0
    cc.pfc_xoff = 3
    cc.pfc_xon = 1
    cc.min_rate = 0.5
    assert _fingerprint(cfg) == base


def test_disabled_plane_leaves_no_trace():
    cfg = SimConfig(num_backends=2, master_seed=7)
    sim = build_cluster(cfg)
    a, fe = sim.backends[0], sim.frontend
    for _ in range(50):
        sim.fabric.transmit(a.nic, fe.nic, 8192, lambda: None)
    sim.run(ms(10))
    assert sim.congestion is None
    assert sim.fabric.congestion is None
    for node in (fe, *sim.backends):
        assert node.nic.cc_ecn_marked_rx == 0
        assert node.nic.cc_cnps_sent == 0
        assert node.nic.cc_cnps_received == 0
        assert node.nic.cc_pause_ns == 0


def test_enabled_incast_is_deterministic():
    """The full incast experiment — tenants, federation, WRED draws,
    CNP timing — repeats exactly under the same seed."""
    first = run_incast(4, "dcqcn", duration=10 * ms(1))
    second = run_incast(4, "dcqcn", duration=10 * ms(1))
    assert first == second


def test_arms_actually_differ():
    """Sanity for the property above: determinism is not vacuous —
    different arms with the same seed do produce different physics."""
    # 4 sources x 2 flows x ~0.16 B/ns is ~1.3x the victim link.
    unc = run_incast(4, "uncontrolled", duration=10 * ms(1), flows_per_source=2)
    dcq = run_incast(4, "dcqcn", duration=10 * ms(1), flows_per_source=2)
    assert unc != dcq
    assert unc["cnps"] == 0 and dcq["cnps"] > 0
