"""Allocation guard: what a built cluster holds before it runs.

A cluster build is the long-lived heap every later full collection
walks, so per-node state that nothing has touched yet is made on first
use (docs/PERF.md, ground rule 5): a blocked task's wait is one object,
a task's completion event appears when it is first read, a back-end's
``db:`` RNG stream at its first draw, and a federation leaf's wiring
when it first polls a member. These tests pin that a build stays small
per back-end, that a leaf's state scales with its shard and not with
the cluster, and that a late ``db:`` stream draws exactly as an eager
one would.
"""

import gc

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.server.database import DatabaseStage
from repro.server.request import Request
from repro.sim.rng import RngRegistry
from repro.sim.units import ms, us

#: tracked objects one built back-end may hold, everything included
#: (web workers, kernel threads, NIC and IRQ state, its share of the
#: federation)
MAX_TRACKED_PER_BACKEND = 250


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _federated(n: int, clients: int):
    return (ClusterBuilder(SimConfig(num_backends=n))
            .scheme("e-rdma-sync", interval=ms(1))
            .with_federation(leaf_interval=ms(1), root_interval=ms(1))
            .workload("rubis", num_clients=clients)
            .build())


def test_built_cluster_holds_a_bounded_number_of_objects_per_backend():
    n = 512
    before = _tracked()
    app = _federated(n, clients=n)
    per_backend = (_tracked() - before) / n
    assert per_backend <= MAX_TRACKED_PER_BACKEND, per_backend
    assert app.federation.topology.rebalance_on_quarantine


def _sized_attributes(obj, n: int, shared) -> list:
    """Names of ``obj``'s attributes holding a container of >= n slots."""
    return [name for name, value in vars(obj).items()
            if isinstance(value, (list, tuple, dict, set))
            and len(value) >= n and value is not shared]


def test_leaf_state_scales_with_its_shard_not_the_cluster():
    n = 64
    app = _federated(n, clients=8)
    fed = app.federation
    assert fed.topology.rebalance_on_quarantine
    app.run(ms(3))
    for leaf in fed.leaves:
        assert leaf.scheme.backends is app.sim.backends
        for obj in (leaf, leaf.scheme, leaf.scheme.sim):
            assert _sized_attributes(obj, n, app.sim.backends) == [], obj
        polled = set(leaf.members())
        assert len(polled) < n
        assert set(leaf.scheme._qps) == polled
        assert set(leaf.scheme._calcs) == polled


def test_db_stream_is_made_on_first_draw():
    app = ClusterBuilder(SimConfig(num_backends=4)).build()
    sim = app.sim
    assert [name for name in sim.rng._streams if name.startswith("db:")] == []
    eager = RngRegistry(sim.cfg.master_seed).stream("db:backend2")
    stage = app.servers[2].db
    request = Request(rid=1, workload="test", query="q", web_cpu=0,
                      db_cpu=us(100))

    def body(k):
        yield from stage.execute(k, request)

    sim.backends[2].spawn("db-probe", body)
    sim.run(ms(10))
    assert stage.queries == 1
    first = eager.random()
    assert stage.misses == (first < DatabaseStage.MISS_PROBABILITY)
    assert stage.rng is sim.rng.stream("db:backend2")
    assert stage.rng.bit_generator.state == eager.bit_generator.state
    assert [name for name in sim.rng._streams
            if name.startswith("db:")] == ["db:backend2"]
