"""Tests for the open-loop workload generator."""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms, seconds
from repro.workloads.openloop import OpenLoopWorkload


def deploy(rate, num_backends=2, **kw):
    cfg = SimConfig(num_backends=num_backends)
    cfg.cpu.wake_preempt_margin = 8
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(50))
           .workers(16)
           .build())
    wl = OpenLoopWorkload(app.sim, app.dispatcher, rate_rps=rate, **kw)
    wl.start()
    return app, wl


def test_validation():
    app, _ = deploy(100)
    with pytest.raises(ValueError):
        OpenLoopWorkload(app.sim, app.dispatcher, rate_rps=0)
    with pytest.raises(ValueError):
        OpenLoopWorkload(app.sim, app.dispatcher, rate_rps=10, injectors=0)


def test_subcapacity_rate_is_honoured():
    """At half capacity the achieved arrival rate tracks the target."""
    app, wl = deploy(400, injectors=32)
    app.run(seconds(5))
    achieved = wl.issued / 5.0
    assert 0.85 * 400 < achieved < 1.1 * 400, achieved


def test_subcapacity_goodput_equals_offered_load():
    app, wl = deploy(400, injectors=32, deadline=ms(200))
    app.run(seconds(5))
    stats = app.dispatcher.stats
    assert stats.timeout_rate < 0.05
    assert stats.throughput(seconds(5)) > 330


def test_overload_collapses_without_backpressure():
    """Open loop far above capacity: queues grow without bound and
    within-deadline goodput collapses — the textbook congestive-collapse
    regime closed-loop clients never show."""
    app, wl = deploy(3000, injectors=64, deadline=ms(120))
    app.run(seconds(5))
    stats = app.dispatcher.stats
    assert wl.issued > 10_000  # the source never slowed down
    assert stats.timeout_rate > 0.5


def test_arrival_rate_independent_of_response_time():
    """The defining open-loop property: overload doesn't throttle arrivals."""
    rates = {}
    for rate, deadline in ((500, ms(200)), (3000, ms(120))):
        app, wl = deploy(rate, injectors=64, deadline=deadline)
        app.run(seconds(4))
        rates[rate] = wl.issued / 4.0
    assert rates[500] < 650
    assert rates[3000] > 2300  # still ~the target despite collapse
