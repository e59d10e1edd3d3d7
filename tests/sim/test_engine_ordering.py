"""Event-ordering edge cases pinned against the overhauled core.

The indexed-heap engine must preserve the historical contract exactly:
pop order is a pure function of ``(time, priority, seq)``, same-time
same-priority events fire in schedule (FIFO) order, and neither
cancellation nor scheduling *during dispatch* can reorder anything
already queued.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.events import EventPriority


def test_same_timestamp_fifo_across_many_events():
    env = Environment()
    order = []
    for i in range(100):
        t = env.timeout(10, value=i)
        t.callbacks.append(lambda e: order.append(e.value))
    env.run_until_quiet(20)
    assert order == list(range(100))


def test_priority_beats_fifo_at_same_timestamp():
    env = Environment()
    order = []
    normal = env.timeout(10, value="normal")
    urgent = env.timeout(10, value="urgent", priority=EventPriority.URGENT)
    for t in (normal, urgent):
        t.callbacks.append(lambda e: order.append(e.value))
    env.run_until_quiet(20)
    assert order == ["urgent", "normal"]


def test_schedule_during_dispatch_runs_after_queued_peers():
    # A callback scheduling a zero-delay event at the current timestamp
    # gets a fresh (larger) seq, so it fires after every already-queued
    # same-time event — never in between them.
    env = Environment()
    order = []

    def spawn_mid(e):
        order.append("first")
        child = env.timeout(0, value="child")
        child.callbacks.append(lambda ev: order.append(ev.value))

    first = env.timeout(10)
    first.callbacks.append(spawn_mid)
    second = env.timeout(10, value="second")
    second.callbacks.append(lambda e: order.append(e.value))
    env.run_until_quiet(20)
    assert order == ["first", "second", "child"]


def test_cancel_during_dispatch_of_same_timestamp_peer():
    # A callback cancelling a same-time event that is still queued must
    # suppress it even though both were scheduled for the same instant.
    env = Environment()
    order = []
    trigger = env.timeout(10)  # scheduled first, so it dispatches first
    victim = env.timeout(10, value="victim")
    victim.callbacks.append(lambda e: order.append(e.value))

    def killer(e):
        order.append("killer")
        assert env.cancel(victim) is True

    trigger.callbacks.append(killer)
    env.run_until_quiet(20)
    assert order == ["killer"]
    assert env.processed_events == 1


def test_schedule_during_dispatch_for_earlier_future_time():
    env = Environment()
    order = []

    def spawn_earlier(e):
        order.append("t10")
        child = env.timeout(5, value="t15")
        child.callbacks.append(lambda ev: order.append(ev.value))

    first = env.timeout(10)
    first.callbacks.append(spawn_earlier)
    late = env.timeout(20, value="t20")
    late.callbacks.append(lambda e: order.append(e.value))
    env.run_until_quiet(30)
    assert order == ["t10", "t15", "t20"]


def test_interleaved_cancel_and_schedule_preserves_seq_order():
    env = Environment()
    order = []
    events = []
    for i in range(20):
        t = env.timeout(10, value=i)
        t.callbacks.append(lambda e: order.append(e.value))
        events.append(t)
    for t in events[1::2]:
        env.cancel(t)
    # new same-time events scheduled after the cancels still fire last
    tail = env.timeout(10, value="tail")
    tail.callbacks.append(lambda e: order.append(e.value))
    env.run_until_quiet(20)
    assert order == [*range(0, 20, 2), "tail"]


def test_run_until_time_with_cancelled_boundary_event():
    env = Environment()
    boundary = env.timeout(10)
    env.cancel(boundary)
    env.run(until=10)
    assert env.now == 10
    assert env.processed_events == 0


def test_processes_see_fifo_wakeups_at_same_time():
    env = Environment()
    order = []

    def sleeper(tag):
        yield env.timeout(10)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(sleeper(tag))
    env.run_until_quiet(20)
    assert order == ["a", "b", "c"]


@given(n=st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_zero_delay_timeouts_fire_in_schedule_order(n):
    """delay=0 timeouts dispatch this instant, in exact schedule order —
    including zero-delay chains scheduled from inside a firing
    callback."""
    env = Environment()
    log = []

    def chain(depth, label):
        def cb(ev):
            log.append(label)
            if depth < 2:
                t = env.timeout(0)
                t.callbacks.append(chain(depth + 1, f"{label}+"))
        return cb

    for i in range(n):
        t = env.timeout(0)
        t.callbacks.append(chain(0, f"z{i}"))
    env.run_until_quiet(10)
    expected = [f"z{i}" for i in range(n)]
    expected += [f"z{i}+" for i in range(n)]
    expected += [f"z{i}++" for i in range(n)]
    assert log == expected
    assert env.now == 10


@given(
    base=st.integers(min_value=0, max_value=1 << 20),
    retries=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_retry_never_reorders_ties(base, retries):
    """The cancel+reschedule (retry) pattern: a rescheduled event lands
    at its new time with a *fresh, larger* sequence number, so it can
    never overtake an event already scheduled for the same (time,
    priority), at any retry depth."""
    env = Environment()
    log = []

    def logger(label):
        return lambda ev: log.append((env.now, label))

    # A stable bystander at the retry's final landing time, chosen
    # strictly after the last driver tick (at retries * 10).
    final = base + retries * 10 + 5
    t_by = env.timeout(final, priority=EventPriority.NORMAL)
    t_by.callbacks.append(logger("bystander"))

    state = {"left": retries}

    def schedule_retry(delay):
        t = env.timeout(delay, priority=EventPriority.NORMAL)
        t.callbacks.append(logger("retry"))
        state["handle"] = t

    def driver(ev):
        if state["left"] > 0:
            state["left"] -= 1
            assert env.cancel(state["handle"])
            schedule_retry(final - env.now)  # re-land exactly on `final`
            if state["left"] > 0:
                nxt = env.timeout(10)
                nxt.callbacks.append(driver)

    schedule_retry(final)
    first = env.timeout(10)
    first.callbacks.append(driver)
    env.run_until_quiet(final + 1)
    # Exactly one retry firing, exactly at `final`, and the bystander —
    # scheduled first — keeps its tie-break priority.
    assert log == [(final, "bystander"), (final, "retry")]
    assert env.cancelled_events == retries
