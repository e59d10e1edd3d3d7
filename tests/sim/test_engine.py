"""Tests for the discrete-event engine: clock, ordering, run() modes."""

import re

import pytest

from repro.sim.engine import Environment, SimulationError, StopSimulation
from repro.sim.events import EventPriority


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_clock_custom_start():
    env = Environment(initial_time=42)
    assert env.now == 42


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(100)
    env.run()
    assert env.now == 100


def test_run_until_time_stops_exactly():
    env = Environment()
    env.timeout(100)
    env.timeout(500)
    env.run(until=250)
    assert env.now == 250


def test_run_until_time_processes_boundary_events():
    env = Environment()
    fired = []
    t = env.timeout(100)
    t.callbacks.append(lambda e: fired.append(env.now))
    env.run(until=100)
    assert fired == [100]


def test_run_until_past_raises():
    env = Environment(initial_time=100)
    with pytest.raises(SimulationError):
        env.run(until=50)


def test_run_empty_queue_returns_none():
    env = Environment()
    assert env.run() is None


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(10)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"
    assert env.now == 10


def test_run_until_unreachable_event_raises():
    env = Environment()
    ev = env.event()
    env.timeout(10)
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []
    for i in range(5):
        t = env.timeout(100)
        t.callbacks.append(lambda e, i=i: order.append(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_overrides_schedule_order():
    env = Environment()
    order = []
    low = env.timeout(100, priority=EventPriority.LOW)
    low.callbacks.append(lambda e: order.append("low"))
    high = env.timeout(100, priority=EventPriority.HIGH)
    high.callbacks.append(lambda e: order.append("high"))
    env.run()
    assert order == ["high", "low"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("delay", [1.5, 5e6])
def test_call_later_rejects_non_integer_delay(delay):
    # call_later does not coerce with int() the way timeout() does, so a
    # float delay would make the clock a float; it must be refused.
    env = Environment()
    fired = []
    with pytest.raises(TypeError, match=re.escape(repr(delay))):
        env.call_later(delay, lambda: fired.append("float"))
    env.call_later(5, lambda: fired.append("int"))
    env.run()
    assert fired == ["int"]
    assert env.now == 5
    assert type(env.now) is int


def test_stop_simulation_from_process():
    env = Environment()

    def proc():
        yield env.timeout(5)
        raise StopSimulation("halted")

    env.process(proc())
    env.timeout(1000)
    assert env.run() == "halted"
    assert env.now == 5


def test_processed_event_count():
    env = Environment()
    env.timeout(1)
    env.timeout(2)
    env.run()
    assert env.processed_events == 2


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(30)
    env.timeout(10)
    assert env.peek() == 10


def test_run_until_quiet_clamps_clock():
    env = Environment()
    env.timeout(10)
    env.run_until_quiet(100)
    assert env.now == 100


def test_unhandled_failure_propagates():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(proc())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())
