"""Alert-aware shedding: admission rejects, dispatcher routes around."""

from types import SimpleNamespace

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.monitoring.loadinfo import LoadInfo
from repro.server.admission import AdmissionController
from repro.sim.units import MILLISECOND, SECOND
from repro.telemetry.alerts import AlertEngine, Severity, ThresholdRule
from repro.workloads.rubis import RubisWorkload


def overload_engine() -> AlertEngine:
    return AlertEngine([ThresholdRule(
        "overload", metric="cpu", fire_above=0.9, clear_below=0.7,
        severity=Severity.CRITICAL, sheds=True,
    )])


def test_admission_sheds_while_alerts_active():
    engine = overload_engine()
    ac = AdmissionController(num_backends=2, alert_engine=engine,
                             shed_fraction=0.5)
    loads = {}
    assert ac.admit(loads)  # no alerts: admit
    engine.observe(0, 1, {"cpu": 0.99})
    assert not ac.admit(loads)  # 1/2 backends shedding >= fraction
    assert ac.shed_by_alert == 1
    engine.observe(0, 2, {"cpu": 0.1})  # clears
    assert ac.admit(loads)
    assert ac.rejection_rate == pytest.approx(1 / 3)


def test_admission_shed_fraction_threshold():
    engine = overload_engine()
    ac = AdmissionController(num_backends=4, alert_engine=engine,
                             shed_fraction=0.5)
    engine.observe(0, 1, {"cpu": 0.99})
    assert ac.admit({})  # only 1/4 backends alerted: below the fraction
    engine.observe(1, 2, {"cpu": 0.99})
    assert not ac.admit({})  # 2/4 >= 0.5


def test_admission_validates_shed_fraction():
    with pytest.raises(ValueError):
        AdmissionController(num_backends=2, shed_fraction=0.0)
    with pytest.raises(ValueError):
        AdmissionController(num_backends=2, shed_fraction=1.5)


def test_dispatcher_routes_around_alerted_backend():
    """With backend 0 carrying a critical overload alert, new requests
    go to the clean back-end until the alert clears."""
    # The rule watches a metric the pipeline never feeds, so the alert
    # raised manually below stays active for the rest of the run.
    rules = [ThresholdRule("overload", metric="synthetic", fire_above=1.0,
                           severity=Severity.CRITICAL, sheds=True)]
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", interval=50 * MILLISECOND)
           .with_telemetry(rules=rules)
           .with_alert_shedding()
           .build())
    workload = RubisWorkload(app.sim, app.dispatcher, num_clients=8,
                             think_time=3 * MILLISECOND)
    workload.start()
    app.run(int(0.5 * SECOND))
    before = dict(app.dispatcher.stats.per_backend_counts())

    app.telemetry.engine.observe(0, app.sim.env.now, {"synthetic": 2.0})
    assert app.telemetry.engine.shed_backends() == [0]
    marker = app.dispatcher.forwarded
    app.run(int(0.8 * SECOND))
    after = dict(app.dispatcher.stats.per_backend_counts())
    gained_b0 = after.get(0, 0) - before.get(0, 0)
    gained_b1 = after.get(1, 0) - before.get(1, 0)
    assert app.dispatcher.forwarded > marker  # traffic kept flowing
    assert app.dispatcher.rerouted_by_alert > 0
    assert gained_b1 > gained_b0  # the clean backend took the load


def test_shedding_repick_follows_clean_headroom():
    """Re-picks away from shed back-ends go by the clean back-ends'
    headroom: the shed ones are excluded, not dropped from the view
    (a back-end without a report would score as idle and draw most
    re-picks, each then falling back to rotation)."""
    rules = [ThresholdRule("overload", metric="synthetic", fire_above=1.0,
                           severity=Severity.CRITICAL, sheds=True)]
    app = (ClusterBuilder(SimConfig(num_backends=4))
           .scheme("rdma-sync", interval=50 * MILLISECOND)
           .with_telemetry(rules=rules)
           .with_alert_shedding()
           .build())
    # A frozen view: shed 0 and 1 look idle, clean 2 is busy, clean 3 idle.
    busy = LoadInfo(backend="b2", collected_at=0, cpu_util=1.0, runq_load=16.0,
                    gauges={"connections": 32})
    loads = {i: LoadInfo(backend=f"b{i}", collected_at=0) for i in (0, 1, 3)}
    loads[2] = busy
    app.dispatcher.monitor = SimpleNamespace(latest=loads, epoch=0)
    for backend in (0, 1):
        app.telemetry.engine.observe(backend, 0, {"synthetic": 2.0})
    workload = RubisWorkload(app.sim, app.dispatcher, num_clients=16,
                             think_time=2 * MILLISECOND)
    workload.start()
    app.run(int(0.5 * SECOND))
    counts = app.dispatcher.stats.per_backend_counts()
    assert app.dispatcher.rerouted_by_alert > 100
    assert not counts.get(0) and not counts.get(1)
    # Headroom 1.0 vs 0.15: about 87% of picks land on 3. Re-picking
    # over a view without the shed back-ends gives 3 about 72%.
    assert counts[3] > 4 * counts[2], counts


def test_federated_cluster_sheds_an_overloaded_backend():
    """Per-back-end alert rules fire on a federated cluster too: the root
    delivers each report to telemetry, so a back-end saturated by
    background load raises ``overload`` and the dispatcher routes
    around it."""
    from repro.workloads import create_workload

    app = (ClusterBuilder(SimConfig(num_backends=4))
           .with_federation(num_shards=2)
           .with_alert_shedding()
           .build())
    create_workload("background", app.sim, node=1, threads=8)
    RubisWorkload(app.sim, app.dispatcher, num_clients=32,
                  think_time=5 * MILLISECOND).start()
    app.run(int(0.4 * SECOND))
    raised = {a.backend for a in app.telemetry.engine.log
              if a.rule == "overload" and not a.cleared}
    assert 1 in raised
    assert app.dispatcher.rerouted_by_alert > 0
    counts = app.dispatcher.stats.per_backend_counts()
    assert counts[1] < min(counts[b] for b in (0, 2, 3))
