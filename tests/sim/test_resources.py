"""Tests for the Resource and Store primitives."""

import pytest

from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            log.append(("acq", tag, env.now))
            yield env.timeout(hold)
        log.append(("rel", tag, env.now))

    for i, hold in enumerate([30, 30, 30]):
        env.process(user(i, hold))
    env.run()
    # Third user must wait for a release at t=30.
    assert ("acq", 0, 0) in log and ("acq", 1, 0) in log
    assert ("acq", 2, 30) in log


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(10)

    for tag in range(4):
        env.process(user(tag))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_priority_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def user(tag, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    env.process(holder())
    env.process(user("low", 5, 10))
    env.process(user("high", 1, 20))
    env.run()
    assert order == ["high", "low"]


def test_resource_release_via_context_manager_on_interrupt():
    from repro.sim.process import Interrupt

    env = Environment()
    res = Resource(env, capacity=1)
    acquired = []

    def victim():
        try:
            with res.request() as req:
                yield req
                yield env.timeout(1000)
        except Interrupt:
            pass

    def second():
        yield env.timeout(20)
        with res.request() as req:
            yield req
            acquired.append(env.now)

    v = env.process(victim())

    def attacker():
        yield env.timeout(10)
        v.interrupt()

    env.process(attacker())
    env.process(second())
    env.run()
    assert acquired == [20]


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_count_tracks_users():
    env = Environment()
    res = Resource(env, capacity=3)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    for _ in range(2):
        env.process(user())
    env.run(until=5)
    assert res.count == 2
    env.run()
    assert res.count == 0


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(10)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [(0, 0), (10, 1), (20, 2)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(50)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(50, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    events = []

    def producer():
        yield store.put("a")
        events.append(("put-a", env.now))
        yield store.put("b")
        events.append(("put-b", env.now))

    def consumer():
        yield env.timeout(30)
        item = yield store.get()
        events.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0) in events
    assert ("put-b", 30) in events


def test_store_filtered_get():
    env = Environment()
    store = Store(env)
    got = []

    def setup():
        yield store.put({"tag": "x"})
        yield store.put({"tag": "y"})

    def consumer():
        item = yield store.get(lambda m: m["tag"] == "y")
        got.append(item["tag"])
        item = yield store.get()
        got.append(item["tag"])

    env.process(setup())
    env.process(consumer())
    env.run()
    assert got == ["y", "x"]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    ok, item = store.try_get()
    assert not ok and item is None

    def setup():
        yield store.put(5)

    env.process(setup())
    env.run()
    ok, item = store.try_get()
    assert ok and item == 5
