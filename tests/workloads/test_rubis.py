"""Tests for the RUBiS workload generator."""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RUBIS_QUERIES, RubisWorkload


def test_query_mix_weights_sum_to_one():
    assert abs(sum(q.weight for q in RUBIS_QUERIES) - 1.0) < 1e-9


def test_table1_has_eight_query_classes():
    assert len(RUBIS_QUERIES) == 8
    names = [q.name for q in RUBIS_QUERIES]
    assert names[0] == "Home" and "BrowseCatgryReg" in names


def test_heavy_class_demands_exceed_light():
    by_name = {q.name: q for q in RUBIS_QUERIES}
    heavy = by_name["BrowseCatgryReg"]
    light = by_name["Home"]
    assert heavy.web_cpu + heavy.db_cpu > 5 * (light.web_cpu + light.db_cpu)


def make_app(num_clients=4, **wl_kwargs):
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", interval=ms(50))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=num_clients,
                       think_time=ms(8), **wl_kwargs)
    return app, wl


def test_request_sampling_follows_mix():
    app, wl = make_app()
    counts = {}
    for _ in range(4000):
        req = wl.make_request(None, None)
        counts[req.query] = counts.get(req.query, 0) + 1
    for q in RUBIS_QUERIES:
        observed = counts.get(q.name, 0) / 4000
        assert abs(observed - q.weight) < 0.04, (q.name, observed)


def test_demand_variation_positive_and_scaled():
    app, wl = make_app()
    reqs = [wl.make_request(None, None) for _ in range(500)]
    homes = [r for r in reqs if r.query == "Home"]
    assert all(r.web_cpu > 0 for r in homes)
    mean_web = sum(r.web_cpu for r in homes) / len(homes)
    base = next(q.web_cpu for q in RUBIS_QUERIES if q.name == "Home")
    assert 0.7 * base < mean_web < 1.6 * base


def test_closed_loop_clients_issue_and_complete():
    app, wl = make_app(num_clients=6, burst_length=1)
    wl.start()
    app.run(seconds(2))
    stats = app.dispatcher.stats
    assert wl.issued > 50
    # Closed loop: completions track issues minus in-flight.
    assert stats.count() >= wl.issued - 6 - stats.rejected_count


def test_stop_halts_clients():
    app, wl = make_app(num_clients=4, burst_length=1)
    wl.start()
    app.run(seconds(1))
    wl.stop()
    issued = wl.issued
    app.run(app.sim.env.now + seconds(1))
    assert wl.issued <= issued + 4 * 2  # at most the in-flight bursts drain


def test_bursty_sessions_have_idle_gaps():
    app, wl = make_app(num_clients=1, burst_length=5, idle_factor=20)
    wl.start()
    app.run(seconds(3))
    times = sorted(r.created_at for r in app.dispatcher.stats.completed)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps and max(gaps) > ms(60)  # idle periods visible


def test_client_count_validation():
    app, _ = make_app()
    with pytest.raises(ValueError):
        RubisWorkload(app.sim, app.dispatcher, num_clients=0)
