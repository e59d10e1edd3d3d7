"""Tests for client deadlines / timeout accounting."""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.server.request import Request, RequestStats
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def test_stats_classify_timeouts():
    stats = RequestStats()
    fast = Request(rid=1, workload="t", query="q", web_cpu=0, db_cpu=0,
                   deadline=ms(100))
    fast.created_at, fast.completed_at = 0, ms(50)
    late = Request(rid=2, workload="t", query="q", web_cpu=0, db_cpu=0,
                   deadline=ms(100))
    late.created_at, late.completed_at = 0, ms(150)
    stats.record(fast)
    stats.record(late)
    assert stats.count() == 1
    assert stats.timeout_count == 1
    assert late.timed_out
    assert stats.timeout_rate == 0.5


def test_no_deadline_means_no_timeouts():
    stats = RequestStats()
    slow = Request(rid=1, workload="t", query="q", web_cpu=0, db_cpu=0)
    slow.created_at, slow.completed_at = 0, seconds(10)
    stats.record(slow)
    assert stats.count() == 1 and stats.timeout_count == 0


def test_workload_deadline_produces_timeouts_under_overload():
    app = (ClusterBuilder(SimConfig(num_backends=1))
           .scheme("rdma-sync", interval=ms(50))
           .workers(8)
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=64, think_time=ms(1),
                       deadline=ms(30), burst_length=8)
    wl.start()
    app.run(seconds(3))
    stats = app.dispatcher.stats
    assert stats.timeout_count > 0
    assert 0 < stats.timeout_rate < 1


def test_rejected_clients_back_off():
    app = (ClusterBuilder(SimConfig(num_backends=1))
           .scheme("rdma-sync", interval=ms(20))
           .with_admission(max_score=-1.0)  # reject everything
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=4, think_time=ms(5),
                       burst_length=4, idle_factor=4)
    wl.start()
    app.run(seconds(2))
    # All requests rejected; with backoff the issue rate is throttled to
    # roughly one request per client per backoff period.
    assert app.dispatcher.stats.rejected_count > 0
    assert wl.issued < 4 * 2000 / (5 * 4 * 2)  # far below the no-backoff rate
