"""Tests for session persistence (correlated RUBiS demand)."""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms
from repro.workloads.rubis import RUBIS_QUERIES, RubisWorkload


def make_workload(persistence):
    app = ClusterBuilder(SimConfig(num_backends=1)).scheme("rdma-sync").build()
    return RubisWorkload(app.sim, app.dispatcher, num_clients=1,
                         persistence=persistence)


def test_persistence_validation():
    with pytest.raises(ValueError):
        make_workload(1.0)
    with pytest.raises(ValueError):
        make_workload(-0.1)


def test_persistence_zero_is_iid():
    wl = make_workload(0.0)
    session = [None]
    repeats = 0
    last = None
    for _ in range(3000):
        req = wl.make_request(None, None, session=session)
        if req.query == last:
            repeats += 1
        last = req.query
    # i.i.d. repeat probability = sum of squared weights ≈ 0.14.
    assert repeats / 3000 < 0.25


def test_persistence_creates_sprees():
    wl = make_workload(0.7)
    session = [None]
    repeats = 0
    last = None
    for _ in range(3000):
        req = wl.make_request(None, None, session=session)
        if req.query == last:
            repeats += 1
        last = req.query
    assert repeats / 3000 > 0.6


def test_stationary_distribution_preserved():
    """The lazy chain keeps the calibrated mix exactly."""
    wl = make_workload(0.7)
    session = [None]
    counts = {}
    n = 20000
    for _ in range(n):
        req = wl.make_request(None, None, session=session)
        counts[req.query] = counts.get(req.query, 0) + 1
    for q in RUBIS_QUERIES:
        observed = counts.get(q.name, 0) / n
        assert abs(observed - q.weight) < 0.03, (q.name, observed)


def test_sessions_isolated_between_clients():
    wl = make_workload(0.9)
    s1, s2 = [None], [None]
    wl.make_request(None, None, session=s1)
    # A fresh session must not inherit another session's state.
    assert s2[0] is None
    wl.make_request(None, None, session=s2)
    assert s2[0] is not None
