"""Behavioural tests for the congestion plane on a live fabric."""

import math

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import ms, us


def make_cluster(n=2, **knobs):
    cfg = SimConfig(num_backends=n)
    cfg.congestion.enabled = True
    for name, value in knobs.items():
        setattr(cfg.congestion, name, value)
    return build_cluster(cfg)


def min_one_way(cfg, nbytes):
    net = cfg.net
    ser = max(1, math.ceil(nbytes / net.link_bytes_per_ns))
    return 2 * ser + 2 * net.hop_latency + net.switch_latency


def blast(sim, src, dst, nbytes, count, arrivals=None):
    """Post ``count`` back-to-back packets src -> dst; collect arrivals."""
    if arrivals is None:
        arrivals = []
    for _ in range(count):
        sim.fabric.transmit(src.nic, dst.nic, nbytes,
                            lambda: arrivals.append(sim.env.now))
    return arrivals


def test_plane_installed_iff_enabled():
    on = make_cluster()
    assert on.congestion is not None
    assert on.fabric.congestion is on.congestion
    off = build_cluster(SimConfig(num_backends=2))
    assert off.congestion is None
    assert off.fabric.congestion is None


def test_double_install_rejected():
    sim = make_cluster()
    from repro.congestion.plane import CongestionPlane

    other = CongestionPlane(sim.env, sim.cfg, sim.rng.stream("x"))
    with pytest.raises(RuntimeError):
        other.install(sim.fabric)


def test_idle_fabric_latency_matches_base_model():
    """One packet on a quiet congested fabric: same wire math as base."""
    sim = make_cluster()
    a, fe = sim.backends[0], sim.frontend
    arrivals = blast(sim, a, fe, 4096, 1)
    sim.run(us(100))
    assert arrivals == [min_one_way(sim.cfg, 4096)]


def test_backlog_marks_and_cuts_rate():
    """Incast needs *converging* sources: one sender alone can never
    congest (its TX serialises at exactly the RX drain rate)."""
    sim = make_cluster(n=2, pfc=False)
    a, b, fe = sim.backends[0], sim.backends[1], sim.frontend
    arrivals = blast(sim, a, fe, 8192, 300)
    blast(sim, b, fe, 8192, 300, arrivals)
    sim.run(ms(30))
    plane = sim.congestion
    port = plane.switch.stats()[fe.nic.name]
    assert len(arrivals) == 600
    assert port["ecn_marks"] > 0
    assert fe.nic.cc_ecn_marked_rx == port["ecn_marks"]
    assert plane.cnps_delivered > 0
    assert (a.nic.cc_cnps_received
            + b.nic.cc_cnps_received) == plane.cnps_delivered
    # Every delivered CNP cut some flow's rate (the blast has long
    # drained by now, so the *current* rate has recovered back to 1).
    assert sum(f.cuts for f in plane.flows().values()) == plane.cnps_delivered
    assert plane.flow_rate(a.nic.name, fe.nic.name) == 1.0


def test_pfc_bounds_queue_depth():
    sim = make_cluster(n=2, dcqcn=False)
    cc = sim.cfg.congestion
    a, b, fe = sim.backends[0], sim.backends[1], sim.frontend
    arrivals = []
    blast(sim, a, fe, 8192, 200, arrivals)
    blast(sim, b, fe, 8192, 200, arrivals)
    sim.run(ms(50))
    port = sim.congestion.switch.stats()[fe.nic.name]
    assert len(arrivals) == 400  # pause delays, never drops
    assert port["pauses"] > 0
    # Bounded near xoff: in-flight packets may land after the pause
    # frame, so allow one round of slack — but nowhere near 400*8K.
    assert port["peak_depth"] < 2 * cc.queue_capacity
    assert a.nic.cc_pause_ns > 0 or b.nic.cc_pause_ns > 0


def test_uncontrolled_queue_grows_unbounded():
    sim = make_cluster(n=2, dcqcn=False, pfc=False)
    cc = sim.cfg.congestion
    a, b, fe = sim.backends[0], sim.backends[1], sim.frontend
    blast(sim, a, fe, 8192, 200)
    blast(sim, b, fe, 8192, 200)
    sim.run(ms(50))
    plane = sim.congestion
    port = plane.switch.stats()[fe.nic.name]
    assert port["peak_depth"] > cc.queue_capacity
    assert port["pauses"] == 0
    assert plane.cnps_delivered == 0


def test_per_flow_arbitration_prevents_head_of_line_blocking():
    """A small packet to an idle port is not stuck behind a big backlog."""
    sim = make_cluster(n=2)
    a, b, fe = sim.backends[0], sim.backends[1], sim.frontend
    backlog = blast(sim, a, fe, 8192, 200)  # a -> frontend: huge
    small = blast(sim, a, b, 512, 1)        # a -> b: one packet, idle port
    sim.run(ms(50))
    assert small and backlog
    # The small flow's packet waited at most a few serialisations, not
    # the whole 200-packet backlog (~1.6 ms at 8 us per packet).
    assert small[0] < min_one_way(sim.cfg, 512) + 10 * 8192
    assert small[0] < max(backlog) / 10


def test_cnps_are_coalesced_per_flow():
    sim = make_cluster(n=2, pfc=False)
    a, b, fe = sim.backends[0], sim.backends[1], sim.frontend
    blast(sim, a, fe, 8192, 300)
    blast(sim, b, fe, 8192, 300)
    sim.run(ms(30))
    plane = sim.congestion
    # Marks far outnumber CNPs: at most one CNP per cnp_interval.
    port = plane.switch.stats()[fe.nic.name]
    assert plane.cnps_generated + plane.cnps_coalesced == port["ecn_marks"]
    assert plane.cnps_coalesced > 0
    assert plane.cnps_generated < port["ecn_marks"]


def test_on_event_hook_sees_enqueues_pauses_and_cnps():
    sim = make_cluster(n=2, dcqcn=True, pfc=True)
    a, fe = sim.backends[0], sim.frontend
    b = sim.backends[1]
    events = []
    sim.congestion.observers.append(events.append)
    blast(sim, a, fe, 8192, 300)
    blast(sim, b, fe, 8192, 300)
    sim.run(ms(30))
    kinds = {e["kind"] for e in events}
    assert kinds == {"enqueue", "pause", "cnp"}
    enq = next(e for e in events if e["kind"] == "enqueue")
    assert {"t", "port", "nic", "depth", "marked", "mark_rate"} <= set(enq)


def test_stats_shape():
    sim = make_cluster(n=2)
    a, fe = sim.backends[0], sim.frontend
    blast(sim, a, fe, 8192, 10)
    sim.run(ms(5))
    stats = sim.congestion.stats()
    assert {"cnps_generated", "cnps_delivered", "cnps_coalesced",
            "flows", "ports"} <= set(stats)
    assert fe.nic.name in stats["ports"]
