"""Property-based tests of the simulation kernel's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store


@given(delays=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_clock_is_monotonic_and_exact(delays):
    """Events fire at exactly their scheduled times, in order."""
    env = Environment()
    fired = []
    for d in delays:
        t = env.timeout(d)
        t.callbacks.append(lambda ev, d=d: fired.append((env.now, d)))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert sorted(times) == sorted(delays)
    assert env.processed_events == len(delays)


@given(
    delays=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
        min_size=1, max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_process_sequential_timeouts_sum(delays):
    """A process's completion time is the sum of its waits."""
    env = Environment()
    results = []

    def proc(a, b):
        yield env.timeout(a)
        yield env.timeout(b)
        results.append((env.now, a + b))

    for a, b in delays:
        env.process(proc(a, b))
    env.run()
    assert all(t == total for t, total in results)


@given(
    capacity=st.integers(1, 8),
    holds=st.lists(st.integers(1, 100), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(hold):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(hold))
    env.run()
    assert max_seen[0] <= capacity
    assert res.count == 0


@given(items=st.lists(st.integers(), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == items
