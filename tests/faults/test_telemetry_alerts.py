"""Fault plane -> telemetry: injected faults surface as alerts."""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms
from repro.telemetry import FaultRule, Severity, default_rules


def test_default_rules_include_an_inert_fault_rule():
    rules = default_rules()
    fault_rules = [r for r in rules if isinstance(r, FaultRule)]
    assert len(fault_rules) == 1
    # Never sample-driven: evaluating it on metrics can't fire.
    assert fault_rules[0].evaluate(0, 0, {"cpu_util": 1.0}) == (False, "")


def test_deployed_fault_schedule_raises_and_clears_alerts():
    cfg = SimConfig(num_backends=2, master_seed=5)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(20))
           .with_telemetry()
           .with_faults("at 100ms hang backend0\n"
                        "at 300ms recover backend0\n"
                        "from 400ms to 600ms verb-nak backend1 p=0.5\n")
           .build())
    app.run(ms(700))
    log = [a for a in app.telemetry.engine.log if a.rule == "fault-injected"]
    # Raise on apply, clear on recover/revoke, per targeted backend.
    assert [(a.backend, a.cleared) for a in log] == [
        (0, False), (0, True), (1, False), (1, True)]
    raised = [a for a in log if not a.cleared]
    assert all(a.severity is Severity.WARNING for a in raised)
    assert "hang" in raised[0].message and "verb-nak" in raised[1].message
    cleared = [a for a in log if a.cleared]
    assert cleared[0].time >= ms(300) and cleared[1].time >= ms(600)
    assert app.telemetry.engine.active_alerts() == []


def test_cluster_wide_partition_never_raises_per_backend():
    cfg = SimConfig(num_backends=2, master_seed=5)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(20))
           .with_telemetry()
           .with_faults("from 100ms to 300ms partition frontend | backend0 backend1")
           .build())
    app.run(ms(400))
    assert app.sim.faults.stats()["applied"] == 1
    assert [a for a in app.telemetry.engine.log if a.rule == "fault-injected"] == []


def test_late_subscriber_sees_crash_after_telemetry_and_federation():
    """Fault observers run in subscription order: one appended after the
    build sees each crash once telemetry has raised its alert and the
    federation has quarantined the back-end."""
    cfg = SimConfig(num_backends=4, master_seed=5)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(20))
           .with_faults("at 100ms crash backend1\nat 200ms crash backend2")
           .with_telemetry()
           .with_federation(num_shards=2)
           .build())
    topology = app.federation.topology
    seen = []

    def late(record):
        alerted = {a.backend for a in app.telemetry.engine.log
                   if a.rule == "fault-injected" and not a.cleared}
        seen.append((record.backend, record.backend in topology.quarantined,
                     record.backend in alerted))

    app.sim.faults.observers.append(late)
    app.run(ms(300))
    assert seen == [(1, True, True), (2, True, True)]
