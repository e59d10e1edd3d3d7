"""Property-based tests of domain invariants: scheduler accounting,
Zipf weights, the LRU cache, deviation analysis and the balancer."""

import math
from itertools import accumulate

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import deviation_series
from repro.federation import ShardTopology
from repro.monitoring.loadinfo import LoadInfo
from repro.server.loadbalancer import (
    LeastLoadedBalancer,
    LoadWeights,
    TwoLevelBalancer,
)
from repro.server.webserver import LruDocCache
from repro.workloads.zipf import zipf_weights


@given(
    n=st.integers(1, 2000),
    alpha=st.floats(0.0, 3.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_zipf_weights_are_a_distribution(n, alpha):
    w = zipf_weights(n, alpha)
    assert len(w) == n
    assert abs(w.sum() - 1.0) < 1e-9
    assert (w >= 0).all()
    assert all(a >= b - 1e-15 for a, b in zip(w, w[1:]))


@given(
    capacity=st.integers(1, 32),
    accesses=st.lists(st.integers(0, 63), min_size=1, max_size=300),
)
@settings(max_examples=80, deadline=None)
def test_lru_cache_invariants(capacity, accesses):
    cache = LruDocCache(capacity)
    for doc in accesses:
        cache.access(doc)
        assert len(cache) <= capacity
    assert cache.hits + cache.misses == len(accesses)
    # Re-accessing the most recent doc is always a hit.
    assert cache.access(accesses[-1])


@given(
    truth=st.lists(
        st.tuples(st.integers(0, 10**6), st.floats(-100, 100)),
        min_size=1, max_size=40,
    ),
    reports=st.lists(
        st.tuples(st.integers(0, 10**6), st.floats(-100, 100)),
        min_size=0, max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_deviation_series_nonnegative_and_aligned(truth, reports):
    truth = sorted(truth, key=lambda tv: tv[0])
    devs = deviation_series(reports, truth)
    assert len(devs) == len(reports)
    assert all(d >= 0 for _, d in devs)
    assert [t for t, _ in devs] == [t for t, _ in reports]


@given(
    scores=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=16),
)
@settings(max_examples=60, deadline=None)
def test_balancer_weights_monotone_in_load(scores):
    """Valid picks; headroom weights decrease as the score increases."""
    lb = LeastLoadedBalancer(len(scores))
    lb.weights.inflight = 0.0
    loads = {
        i: LoadInfo(backend=f"b{i}", collected_at=0, cpu_util=s)
        for i, s in enumerate(scores)
    }
    choice = lb.choose(loads)
    assert 0 <= choice < len(scores)
    weights = lb.server_weights(loads)
    assert all(w >= lb.MIN_WEIGHT for w in weights)
    order = sorted(range(len(scores)), key=lambda i: lb.score(loads[i]))
    for a, b in zip(order, order[1:]):
        assert weights[a] >= weights[b] - 1e-12


class Replay:
    """Stands in for a balancer's RNG: returns the given draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def random(self):
        self.used += 1
        return self.draws[self.used - 1]


def scan_pick(weights, excluded, rng):
    """Reference: the linear scan the flat balancer's table replaced,
    over headroom weights with the excluded back-ends zeroed."""
    total = sum(weights)
    pick = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if w > 0.0 and pick <= acc:
            return i
    for i in range(len(weights) - 1, -1, -1):  # fp guard
        if i not in excluded:
            return i


def scan_pick_two_level(weights, excluded, shards, rng):
    """Reference: the two-level balancer's shard-then-member scans."""
    shard_members = [[g for g in members if weights[g] > 0.0] for members in shards]
    shard_weights = [sum(weights[g] for g in members) for members in shard_members]
    total = sum(shard_weights)
    if total <= 0.0:
        return scan_pick(weights, excluded, rng)
    pick = rng.random() * total
    shard = len(shards) - 1
    acc = 0.0
    for j, w in enumerate(shard_weights):
        acc += w
        if w > 0.0 and pick <= acc:
            shard = j
            break
    members = shard_members[shard]
    subtotal = sum(weights[g] for g in members)
    pick = rng.random() * subtotal
    acc = 0.0
    for g in members:
        acc += weights[g]
        if pick <= acc:
            return g
    return members[-1]  # fp guard


def boundary_draws(weights):
    """Draws whose scaled value lands on, or one ulp beside, each prefix sum."""
    total = sum(weights)
    out = {0.0}
    for prefix in accumulate(w for w in weights if w > 0.0):
        r = prefix / total
        out.update((math.nextafter(r, 0.0), r, math.nextafter(r, 1.0)))
    return sorted(r for r in out if 0.0 <= r < 1.0)


CPU_ONLY = dict(cpu=1.0, runq=0.0, connections=0.0, memory=0.0, network=0.0)


@given(
    cpus=st.lists(st.floats(0, 1), min_size=1, max_size=20),
    exclude=st.sets(st.integers(0, 23), max_size=6),
    num_shards=st.integers(1, 5),
    quarantine=st.sets(st.integers(0, 19), max_size=4),
    rebalance=st.booleans(),
    draws=st.lists(st.floats(0, 1, exclude_max=True), max_size=3),
)
@example(cpus=[0.5, 0.75, 0.75], exclude=set(), num_shards=2, quarantine=set(),
         rebalance=True, draws=[0.5, 0.75])
@settings(max_examples=60, deadline=None)
def test_cached_picks_match_linear_scan(cpus, exclude, num_shards, quarantine,
                                        rebalance, draws):
    """Flat and two-level picks equal the linear-scan reference for every
    draw, with and without exclusions, through one warm cache each.

    With cpu the only weighted index, a back-end's headroom is
    ``max(MIN_WEIGHT, 1 - cpu)``; the drawn headroom vectors include
    exact dyadic ones (the ``example``) whose boundary draws hit a
    prefix sum exactly.
    """
    n = len(cpus)
    loads = {i: LoadInfo(backend=f"b{i}", collected_at=0, cpu_util=c)
             for i, c in enumerate(cpus)}
    topo = ShardTopology(n, num_shards=min(num_shards, n),
                         rebalance_on_quarantine=rebalance)
    for b in quarantine:
        topo.quarantine(b)
    shards = [topo.members(j) for j in range(topo.num_shards)]
    flat = LeastLoadedBalancer(n, weights=LoadWeights(**CPU_ONLY))
    two = TwoLevelBalancer(topo, weights=LoadWeights(**CPU_ONLY))
    for excl in (set(), exclude, set()):
        effective = excl if len(excl) < n else set()
        weights = [0.0 if i in effective else max(LeastLoadedBalancer.MIN_WEIGHT, 1.0 - c)
                   for i, c in enumerate(cpus)]
        candidates = sorted(set(draws) | set(boundary_draws(weights)))
        for r in candidates:
            flat.rng, ref = Replay([r]), Replay([r])
            assert flat.choose(loads, excl) == scan_pick(weights, effective, ref)
        subtotals = [sum(weights[g] for g in members if weights[g] > 0.0)
                     for members in shards]
        member_draws = {0.0, *draws}
        for members in shards:
            member_draws.update(boundary_draws([weights[g] for g in members]))
        for r1 in sorted(set(draws) | set(boundary_draws(subtotals))):
            for r2 in sorted(member_draws):
                two.rng, ref = Replay([r1, r2]), Replay([r1, r2])
                expected = scan_pick_two_level(weights, effective, shards, ref)
                assert two.choose(loads, excl) == expected
                assert two.rng.used == ref.used


def _loads(*cpus, **fields):
    return {i: LoadInfo(backend=f"b{i}", collected_at=0, cpu_util=c, **fields)
            for i, c in enumerate(cpus)}


def _sweep(lb, loads, exclude=None):
    """The picks for an even sweep of draws (two per two-level pick)."""
    lb.rng = Replay(k / 64 for k in range(64) for _ in range(2))
    return [lb.choose(loads, exclude) for _ in range(64)]


def _cold(lb):
    """A balancer with ``lb``'s current settings and an empty cache."""
    kw = dict(weights=LoadWeights(**vars(lb.weights)),
              use_irq_pressure=lb.use_irq_pressure)
    if isinstance(lb, TwoLevelBalancer):
        cold = TwoLevelBalancer(lb.topology, **kw)
    else:
        cold = LeastLoadedBalancer(lb.num_backends, **kw)
    cold.assigned = list(lb.assigned)
    return cold


def _assert_invalidated(lb, loads, before, exclude=None):
    """After a trigger, the warm balancer picks as a cold one, and the
    trigger changed the picks (so a stale cache would have shown)."""
    after = _sweep(lb, loads, exclude)
    assert after == _sweep(_cold(lb), loads, exclude)
    assert after != before


def test_cache_invalidated_by_reassigned_weights():
    lb = LeastLoadedBalancer(2)
    loads = _loads(0.9, 0.0, runq_load=16.0)
    before = _sweep(lb, loads)
    lb.weights = LoadWeights(cpu=0.0, runq=0.0, connections=0.0, memory=0.0)
    _assert_invalidated(lb, loads, before)


def test_cache_invalidated_by_mutated_weight_field():
    lb = LeastLoadedBalancer(2)
    loads = _loads(0.9, 0.0)
    before = _sweep(lb, loads)
    lb.weights.cpu = 0.0
    _assert_invalidated(lb, loads, before)


def test_cache_invalidated_by_irq_pressure_flag():
    lb = LeastLoadedBalancer(2)
    loads = _loads(0.0, 0.0)
    loads[0].irq_pending = [8, 8]
    before = _sweep(lb, loads)
    lb.use_irq_pressure = True
    _assert_invalidated(lb, loads, before)


def test_cache_invalidated_by_replaced_loadinfo():
    lb = LeastLoadedBalancer(2)
    loads = _loads(0.9, 0.0)
    before = _sweep(lb, loads)
    loads[0] = LoadInfo(backend="b0", collected_at=1, cpu_util=0.0)
    _assert_invalidated(lb, loads, before)


def test_cache_invalidated_by_quarantine_without_rebalance():
    topo = ShardTopology(4, num_shards=2, rebalance_on_quarantine=False)
    lb = TwoLevelBalancer(topo)
    loads = _loads(0.0, 0.5, 0.5, 0.5)
    before = _sweep(lb, loads)
    topo.quarantine(0)
    assert topo.generation == 0
    _assert_invalidated(lb, loads, before)
    assert 0 not in _sweep(lb, loads)
    topo.release(0)
    assert _sweep(lb, loads) == before == _sweep(_cold(lb), loads)


def test_cache_invalidated_by_inflight_assignments():
    lb = LeastLoadedBalancer(2)
    lb.weights.inflight = 1.0
    loads = _loads(0.0, 0.0)
    before = _sweep(lb, loads)
    for _ in range(16):
        lb.note_assigned(0)
    _assert_invalidated(lb, loads, before)


@given(
    bursts=st.lists(st.integers(1, 2000), min_size=1, max_size=12),
)
@settings(max_examples=30, deadline=None)
def test_scheduler_conserves_cpu_time(bursts):
    """Sum of charged task time never exceeds wall time × CPUs."""
    from repro.config import SimConfig
    from repro.hw.cluster import build_cluster
    from repro.sim.units import us

    sim = build_cluster(SimConfig(num_backends=1))
    node = sim.backends[0]
    tasks = []

    def worker(burst_us):
        def body(k):
            yield k.compute(us(burst_us))

        return body

    for i, b in enumerate(bursts):
        tasks.append(node.spawn(f"w{i}", worker(b)))
    sim.run_horizon = sum(bursts) * 1000 * 4 + 50_000_000
    sim.run(sim.run_horizon)
    node.sched.sync()
    total_user = sum(t.user_ns for t in tasks)
    assert total_user == sum(us(b) for b in bursts)  # all work completed, exactly
    wall = sim.env.now
    charged = sum(
        node.sched.jiffies(i)["user"] + node.sched.jiffies(i)["sys"] +
        node.sched.jiffies(i)["irq"]
        for i in range(node.num_cpus)
    )
    assert charged <= wall * node.num_cpus
