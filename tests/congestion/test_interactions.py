"""Interaction edges: the congestion plane composed with the fault plane.

The fabric consults planes in a fixed order — fault verdict first
(drop / degrade factors), then congestion delivery — so degraded links
congest *more* (slower serialisation piles the queue higher), packets
already queued behind a PFC pause keep their post-time verdicts, and
verb-level NAKs ride the same congested wire as everything else.
"""

import pytest

from repro.config import SimConfig
from repro.faults import FaultPlane, parse_schedule
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.sim.units import ms
from repro.workloads import create_workload


def make_cluster(schedule=None, n=2, seed=1, **knobs):
    cfg = SimConfig(num_backends=n, master_seed=seed)
    cfg.congestion.enabled = True
    for name, value in knobs.items():
        setattr(cfg.congestion, name, value)
    sim = build_cluster(cfg)
    faults = None
    if schedule is not None:
        faults = FaultPlane(sim, parse_schedule(schedule)).install()
    return sim, faults


def blast(sim, src, dst, nbytes, count, arrivals=None):
    if arrivals is None:
        arrivals = []
    for _ in range(count):
        sim.fabric.transmit(src.nic, dst.nic, nbytes,
                            lambda: arrivals.append(sim.env.now))
    return arrivals


# ----------------------------------------------------------------------
# degraded link + ECN on the same packets
# ----------------------------------------------------------------------
def test_degraded_link_congests_harder():
    """bw degradation stretches serialisation, so the same offered load
    builds a deeper queue and marks more than on a healthy link."""

    def peak_and_marks(schedule):
        sim, _ = make_cluster(schedule, pfc=False, dcqcn=False)
        a, b, fe = sim.backends[0], sim.backends[1], sim.frontend
        # Let the fault plane's apply events fire before posting.
        sim.run(ms(1))
        blast(sim, a, fe, 8192, 100)
        blast(sim, b, fe, 8192, 100)
        sim.run(ms(60))
        port = sim.congestion.switch.stats()[fe.nic.name]
        return port["peak_depth"], port["ecn_marks"]

    healthy_depth, healthy_marks = peak_and_marks(None)
    # Both sender links run at a tenth of line rate for the whole run.
    degraded = ("from 0ms to 60ms degrade-link backend0 frontend bw=0.1\n"
                "from 0ms to 60ms degrade-link backend1 frontend bw=0.1")
    degraded_depth, degraded_marks = peak_and_marks(degraded)
    assert healthy_depth > 0 and healthy_marks > 0
    # Degraded packets occupy the egress link 10x longer, so the same
    # 2:1 convergence backs the queue up further and marks everything.
    assert degraded_depth > healthy_depth
    assert degraded_marks >= healthy_marks


def test_packet_loss_composes_with_congestion():
    """Dropped-on-the-wire packets never reach the egress queue."""
    sim, faults = make_cluster(
        "from 0ms to 40ms degrade-link backend0 frontend loss=0.9",
        pfc=False, dcqcn=False, seed=11)
    a, fe = sim.backends[0], sim.frontend
    sim.run(ms(1))
    arrivals = blast(sim, a, fe, 8192, 200)
    sim.run(ms(40))
    # ~90% of posts die on the wire; the survivors (and only they) pass
    # through the egress-queue accounting.
    assert 0 < len(arrivals) < 100
    port = sim.congestion.switch.stats()[fe.nic.name]
    assert port["enqueued"] == len(arrivals)


# ----------------------------------------------------------------------
# partition during a PFC-paused transfer
# ----------------------------------------------------------------------
def test_partition_during_pfc_pause():
    """Packets queued before the partition keep their post-time verdict
    and deliver once the pause lifts; packets posted during the
    partition are dropped at the fault plane, never reaching the
    congestion plane."""
    sim, faults = make_cluster(
        "from 5ms to 30ms partition frontend | backend0 backend1",
        dcqcn=False)
    a, b, fe = sim.backends[0], sim.backends[1], sim.frontend
    before = []
    # Enough converging traffic (6.5 MB at a 2:1 overload, ~6.5 ms to
    # drain) that PFC trips and a backlog is still queued at 5 ms.
    blast(sim, a, fe, 8192, 400, before)
    blast(sim, b, fe, 8192, 400, before)
    sim.run(ms(5))
    delivered_at_cut = len(before)
    assert sim.congestion.switch.stats()[fe.nic.name]["pauses"] > 0
    assert delivered_at_cut < 800  # a backlog was still queued
    during = blast(sim, a, fe, 8192, 20)
    sim.run(ms(35))
    # The pre-partition backlog drained fully; mid-partition posts died.
    assert len(before) == 800
    assert during == []
    # And the fabric keeps working after the partition heals.
    after = blast(sim, a, fe, 8192, 1)
    sim.run(ms(40))
    assert len(after) == 1


# ----------------------------------------------------------------------
# verb NAKs racing a DCQCN rate cut
# ----------------------------------------------------------------------
def test_verb_naks_race_dcqcn_rate_cut():
    """A NAK'd monitoring read and a CNP-cut tenant flow share the
    sender NIC: the verb error path must not wedge the TX arbiter, and
    the monitor recovers after the fault window while DCQCN keeps
    cutting tenants."""
    cfg = SimConfig(num_backends=2, master_seed=3)
    cfg.congestion.enabled = True
    cfg.monitor.interval = ms(5)
    sim = build_cluster(cfg)
    FaultPlane(sim, parse_schedule(
        "from 20ms to 60ms verb-nak backend0 p=1.0")).install()
    # Tenants congest the frontend port so DCQCN is actively cutting
    # while the monitor's reads hit injected NAKs.
    # 2 back-ends x 4 flows x 0.16 B/ns ~ 1.3x the link: overloaded.
    create_workload("incast", sim, target=sim.frontend, sources=sim.backends,
                    flows_per_source=4)
    scheme = create_scheme("rdma-sync", sim)
    probes = []
    scheme.observers.append(probes.append)
    FrontendMonitor(scheme).start()
    sim.run(ms(120))

    records = [r for r in probes if r.backend == 0]
    during = [r for r in records if ms(20) < r.completed_at < ms(60)]
    after = [r for r in records if r.completed_at > ms(65)]
    assert any(not r.ok for r in during), "NAK window produced no failures"
    assert after and all(r.ok for r in after), "monitor did not recover"
    plane = sim.congestion
    assert plane.cnps_delivered > 0, "DCQCN never engaged"
    assert sum(f.cuts for f in plane.flows().values()) > 0
