"""Tests for the dispatcher: routing, admission, stats plumbing."""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.server.request import Request
from repro.sim.resources import Store
from repro.sim.units import ms, seconds, us
from repro.workloads.rubis import RubisWorkload


def test_end_to_end_request_flow():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", interval=ms(50))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=4, think_time=ms(10),
                       burst_length=1)
    wl.start()
    app.run(seconds(2))
    stats = app.dispatcher.stats
    assert stats.count() > 50
    assert all(r.backend in (0, 1) for r in stats.completed)
    assert all(r.response_time > 0 for r in stats.completed)


def test_dispatcher_spreads_over_backends():
    app = (ClusterBuilder(SimConfig(num_backends=3))
           .scheme("rdma-sync", interval=ms(20))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=12, think_time=ms(5),
                       burst_length=1)
    wl.start()
    app.run(seconds(3))
    counts = app.dispatcher.stats.per_backend_counts()
    assert len(counts) == 3
    assert min(counts.values()) > 0.5 * max(counts.values()), counts


def test_admission_rejects_under_overload():
    app = (ClusterBuilder(SimConfig(num_backends=1))
           .scheme("rdma-sync", interval=ms(20))
           .workers(4)
           .with_admission(max_score=0.15)
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=32, think_time=ms(1),
                       burst_length=1)
    wl.start()
    app.run(seconds(3))
    assert app.admission is not None
    assert app.admission.rejected > 0
    assert app.dispatcher.stats.rejected_count > 0


def test_rejected_requests_not_counted_completed():
    app = (ClusterBuilder(SimConfig(num_backends=1))
           .scheme("rdma-sync", interval=ms(20))
           .with_admission(max_score=-1.0)  # reject everything
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=4, think_time=ms(5),
                       burst_length=1)
    wl.start()
    app.run(seconds(1))
    stats = app.dispatcher.stats
    # After the first poll fills the cache, everything is rejected.
    assert stats.rejected_count > 0
    assert stats.count() < 30


def test_balancer_inflight_accounting_drains():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", interval=ms(50))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5),
                       burst_length=1)
    wl.start()
    app.run(seconds(2))
    wl.stop()
    app.run(app.sim.env.now + seconds(1))
    assert sum(app.balancer.assigned) <= 1
