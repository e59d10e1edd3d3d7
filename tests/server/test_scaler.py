"""Tests for the monitoring-driven ElasticScaler."""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.server.reconfig import ElasticScaler, load_score
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


class FakeInfo:
    def __init__(self, runq_load=0.0, cpu_util=0.0):
        self.runq_load = runq_load
        self.cpu_util = cpu_util


class FakeView:
    """A settable ``latest`` mapping, like any monitoring cache."""

    def __init__(self):
        self.latest = {}

    def set_all(self, backends, runq=0.0, cpu=0.0):
        self.latest = {b: FakeInfo(runq, cpu) for b in backends}


def _scaler(sim, view, **kw):
    kw.setdefault("interval", ms(10))
    kw.setdefault("high_water", 0.6)
    kw.setdefault("low_water", 0.2)
    return ElasticScaler(sim, view, **kw)


def test_load_score_blends_runq_and_cpu():
    assert load_score(FakeInfo(0, 0)) == 0.0
    assert load_score(FakeInfo(8, 1.0)) == 1.0
    assert load_score(FakeInfo(4, 0.5)) == pytest.approx(0.5)
    assert load_score(FakeInfo(100, 0.0)) == pytest.approx(0.5)  # runq capped


def test_validation():
    sim = build_cluster(SimConfig(num_backends=3))
    view = FakeView()
    with pytest.raises(ValueError):
        ElasticScaler(sim, view, interval=0)
    with pytest.raises(ValueError):
        ElasticScaler(sim, view, interval=1, high_water=0.2, low_water=0.5)
    with pytest.raises(ValueError):
        ElasticScaler(sim, view, interval=1, min_active=0)
    with pytest.raises(ValueError):
        ElasticScaler(sim, view, interval=1, min_active=3, max_active=2)
    with pytest.raises(ValueError):
        ElasticScaler(sim, view, interval=1, initial_active=1, min_active=2)
    with pytest.raises(ValueError):
        ElasticScaler(sim, view, interval=1, up_after=0)
    with pytest.raises(ValueError):
        ElasticScaler(sim, view, interval=1, cooldown=-1)


def test_scales_up_on_sustained_overload():
    sim = build_cluster(SimConfig(num_backends=4))
    view = FakeView()
    scaler = _scaler(sim, view, initial_active=2, up_after=2)
    events = []
    scaler.observers.append(events.append)
    view.set_all(range(4), runq=8, cpu=0.9)
    sim.run(ms(100))
    ups = [e for e in scaler.events if e.direction == "up"]
    assert ups and ups[0].backend == 2  # lowest parked index first
    assert len(scaler.active) > 2
    # The observer stream carries every evaluation; mean_load the latest.
    evals = [e["mean_load"] for e in events if e["kind"] == "eval"]
    assert scaler.evaluations == len(evals) > 0
    assert scaler.mean_load == evals[-1]


def test_scales_down_on_sustained_idleness_and_respects_min():
    sim = build_cluster(SimConfig(num_backends=3))
    view = FakeView()
    scaler = _scaler(sim, view, down_after=3)
    view.set_all(range(3), runq=0, cpu=0.0)
    sim.run(seconds(1))
    downs = [e for e in scaler.events if e.direction == "down"]
    assert downs and downs[0].backend == 2  # highest active index first
    assert len(scaler.active) == 1  # never below min_active
    assert scaler.healthy_backends() == [0]
    assert scaler.quarantined() == [1, 2]


def test_no_data_is_not_idleness():
    """An empty view (cold start) must not trigger scale-down."""
    sim = build_cluster(SimConfig(num_backends=3))
    view = FakeView()  # never populated
    scaler = _scaler(sim, view, down_after=1)
    sim.run(seconds(1))
    assert scaler.events == []
    assert len(scaler.active) == 3


def test_cooldown_throttles_moves():
    sim = build_cluster(SimConfig(num_backends=4))
    view = FakeView()
    scaler = _scaler(sim, view, initial_active=1, up_after=1,
                     cooldown=ms(500))
    view.set_all(range(4), runq=8, cpu=1.0)
    sim.run(ms(600))
    # Without cooldown this would be 3 moves in 30 ms; with it, 2 at most
    # (one immediately, one after the cooldown expires).
    assert 1 <= len(scaler.events) <= 2


def test_health_chaining():
    """Scaler ∩ heartbeat: both must agree a back-end is routable."""
    sim = build_cluster(SimConfig(num_backends=4))

    class FakeHealth:
        def healthy_backends(self):
            return [0, 2, 3]

        def quarantined(self):
            return [1]

    view = FakeView()
    scaler = _scaler(sim, view, initial_active=3, health=FakeHealth())
    assert scaler.healthy_backends() == [0, 2]  # 1 is sick, 3 is parked
    assert scaler.quarantined() == [1, 3]


def test_observer_sees_evals_and_moves():
    sim = build_cluster(SimConfig(num_backends=2))
    view = FakeView()
    events = []
    scaler = _scaler(sim, view, initial_active=1, up_after=1)
    scaler.observers.append(events.append)
    view.set_all(range(2), runq=8, cpu=1.0)
    sim.run(ms(50))
    kinds = {e["kind"] for e in events}
    assert kinds == {"eval", "scale"}
    assert all("mean_load" in e for e in events if e["kind"] == "eval")
    assert scaler.events  # the move log matches the observer stream


# ----------------------------------------------------------------------
# builder integration
# ----------------------------------------------------------------------
def test_builder_wires_scaler_into_routing_and_spans():
    cfg = SimConfig(num_backends=4)
    cluster = (ClusterBuilder(cfg)
               .scheme("rdma-sync")
               .with_tracing()
               .with_telemetry()
               .with_elastic_scaler(initial_active=2, high_water=0.45,
                                    low_water=0.05, up_after=2)
               .workload("rubis", num_clients=48, think_time=ms(10))
               .build())
    cluster.run(until=seconds(2))
    scaler = cluster.scaler
    assert scaler is not None
    ups = [e for e in scaler.events if e.direction == "up"]
    assert ups, scaler.mean_load
    # Routing honoured the pool: parked back-ends got no requests while
    # parked (backend 3 is released last, if at all).
    counts = cluster.dispatcher.stats.per_backend_counts()
    assert counts.get(0, 0) > 0 and counts.get(1, 0) > 0
    # scale:up spans were emitted on the frontend.
    spans = [s for s in cluster.sim.spans.spans
             if s.name.startswith("scale:")]
    assert len(spans) == len(scaler.events)
    assert all(s.component == "scaler" for s in spans)
    # Telemetry ingested scaler series.
    keys = set(cluster.telemetry.store.names())
    assert "scaler.mean_load" in keys and "scaler.active" in keys
    assert "scaler.moves" in keys


def test_builder_scaler_disabled_by_default():
    cluster = ClusterBuilder(SimConfig(num_backends=2)).build()
    assert cluster.scaler is None


def test_obs_exposes_scaler_series():
    cfg = SimConfig(num_backends=3)
    cluster = (ClusterBuilder(cfg)
               .scheme("rdma-sync")
               .observability()
               .with_elastic_scaler(initial_active=2)
               .workload("rubis", num_clients=8, think_time=ms(10))
               .build())
    cluster.run(until=seconds(1))
    text = cluster.obs.registry.render()
    assert "repro_scaler_active_backends" in text
    assert "repro_scaler_parked_backends" in text
    assert "repro_scaler_evaluations_total" in text
    assert 'repro_scaler_moves_total{direction="up"}' in text
    assert "repro_scaler_mean_load" in text


def test_validation_of_active_bounds_and_patience():
    sim = build_cluster(SimConfig(num_backends=3))
    view = FakeView()
    for bad in ({"interval": -1}, {"initial_active": -1}, {"max_active": -1},
                {"initial_active": 4}, {"down_after": 0}):
        with pytest.raises(ValueError):
            ElasticScaler(sim, view, **{"interval": 1, **bad})
    scaler = ElasticScaler(sim, view)
    assert scaler.interval == sim.cfg.monitor.interval
    assert (scaler.active, scaler.max_active) == ({0, 1, 2}, 3)
