"""The closed defense loop: detect, throttle, quarantine, release."""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import ms
from repro.workloads import create_workload


def _cluster(defense=True, **knobs):
    cfg = SimConfig(num_backends=2, master_seed=7)
    cfg.tenancy.enabled = True
    cfg.tenancy.defense = defense
    cfg.tenancy.defense_interval = ms(5)
    for key, value in knobs.items():
        setattr(cfg.tenancy, key, value)
    return build_cluster(cfg)


def _attack(sim):
    return create_workload("read-blaster", sim, src=sim.clients,
                           target=sim.backends[0])


def test_defense_escalates_throttle_then_quarantine():
    sim = _cluster()
    _attack(sim)
    sim.run(ms(60))
    plane = sim.tenancy
    kinds = [a["kind"] for a in plane.actions]
    assert "throttle" in kinds and "quarantine" in kinds
    assert kinds.index("throttle") < kinds.index("quarantine")
    tenant = plane.registry.by_name("read-blast")
    assert tenant.quarantined
    assert tenant.strikes >= sim.cfg.tenancy.quarantine_after
    # Quarantined posts complete as TENANT_DENIED — the open-loop
    # blaster keeps trying and keeps being refused off the wire.
    assert tenant.denied_ops > 0
    # The throttle recorded the cap it imposed.
    throttle = next(a for a in plane.actions if a["kind"] == "throttle")
    assert throttle["tenant"] == tenant.tid


def test_defense_off_observes_but_never_acts():
    sim = _cluster(defense=False)
    events = []
    sim.tenancy.observers.append(events.append)
    _attack(sim)
    sim.run(ms(60))
    assert sim.tenancy.actions == []
    tenant = sim.tenancy.registry.by_name("read-blast")
    assert not tenant.quarantined and tenant.police_bps == 0
    # Detection telemetry still flows: offending windows are flagged.
    offending = [e for e in events
                 if e["kind"] == "tenant" and e["offending"] == 1.0]
    assert offending and offending[0]["tenant"] == tenant.tid


def test_quarantine_is_sticky_until_operator_release():
    sim = _cluster()
    tasks = _attack(sim)
    sim.run(ms(60))
    plane = sim.tenancy
    tenant = plane.registry.by_name("read-blast")
    assert tenant.quarantined
    # Long after the damage, with the attacker only producing denied
    # traffic, the quarantine must not auto-lift.
    sim.run(ms(160))
    assert tenant.quarantined
    assert not any(a["kind"] == "release" for a in plane.actions)

    posted_before = tenant.posted_ops
    plane.release(tenant)
    assert not tenant.quarantined
    assert tenant.strikes == 0 and tenant.police_bps == 0
    release = [a for a in plane.actions if a["kind"] == "release"]
    assert len(release) == 1 and release[0]["tenant"] == tenant.tid
    # Re-admitted for real: the still-running blaster posts again.
    sim.run(ms(170))
    assert tenant.posted_ops > posted_before


def test_clean_tenants_draw_no_sanctions():
    sim = _cluster()
    sim.tenancy.create_tenant("idle", node=sim.clients)
    sim.run(ms(60))
    assert sim.tenancy.actions == []
    assert all(not t.quarantined for t in sim.tenancy.registry)


def test_telemetry_gets_per_tenant_series_and_offender_alert():
    app = (ClusterBuilder(SimConfig(num_backends=2, master_seed=9))
           .scheme("rdma-sync", interval=ms(1))
           .tenancy(defense=True, defense_interval=ms(5))
           .with_telemetry()
           .build())
    sim = app.sim
    _attack(sim)
    app.run(ms(40))
    tenant = sim.tenancy.registry.by_name("read-blast")
    store = app.telemetry.store
    key = f"t{tenant.tid}.posted_mbps"
    assert key in store.names()
    samples = list(store.ring(key).raw)
    assert samples and max(v for _, v in samples) > 0
    assert f"t{tenant.tid}.offending" in store.names()
    # The offender alert fired on the tenant's negative pseudo-backend.
    engine = app.telemetry.engine
    assert engine.counts_by_rule().get("tenant-offender", 0) >= 1


def test_spans_emitted_for_sanctions():
    app = (ClusterBuilder(SimConfig(num_backends=2, master_seed=9))
           .scheme("rdma-sync", interval=ms(1))
           .tenancy(defense=True, defense_interval=ms(5))
           .with_tracing(sample=1.0)
           .build())
    sim = app.sim
    _attack(sim)
    app.run(ms(40))
    names = {span.name for span in sim.spans.spans}
    assert "tenancy:throttle" in names
    assert "tenancy:evict" in names
