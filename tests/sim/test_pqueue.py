"""IndexedHeap and engine-level O(1) cancellation."""

import pytest

from repro.sim.engine import PEEK_NEVER, EmptySchedule, Environment
from repro.sim.pqueue import IndexedHeap


# -- IndexedHeap unit behaviour -------------------------------------------

def test_push_pop_orders_by_key():
    h = IndexedHeap()
    h.push((3, 0), "c")
    h.push((1, 0), "a")
    h.push((2, 0), "b")
    assert [h.pop() for _ in range(3)] == ["a", "b", "c"]


def test_key_ties_break_on_later_components():
    h = IndexedHeap()
    h.push((1, 2), "second")
    h.push((1, 1), "first")
    assert h.pop() == "first"
    assert h.pop() == "second"


def test_len_and_bool_track_live_entries_only():
    h = IndexedHeap()
    assert not h and len(h) == 0
    e1 = h.push((1,), "a")
    h.push((2,), "b")
    assert len(h) == 2
    assert h.cancel(e1)
    assert len(h) == 1 and h
    assert h.pop() == "b"
    assert not h


def test_cancel_is_idempotent():
    h = IndexedHeap()
    entry = h.push((1,), "a")
    assert h.cancel(entry) is True
    assert h.cancel(entry) is False
    assert len(h) == 0


def test_cancelled_entries_never_surface():
    h = IndexedHeap()
    entries = [h.push((i,), i) for i in range(10)]
    for e in entries[::2]:
        h.cancel(e)
    assert [h.pop() for _ in range(len(h))] == [1, 3, 5, 7, 9]
    with pytest.raises(IndexError):
        h.pop()


def test_peek_key_skips_tombstones():
    h = IndexedHeap()
    first = h.push((1, 7), "a")
    h.push((2, 8), "b")
    assert h.peek_key() == (1, 7)
    h.cancel(first)
    assert h.peek_key() == (2, 8)
    h.pop()
    assert h.peek_key() is None


def test_clear_empties_everything():
    h = IndexedHeap()
    h.push((1,), "a")
    h.push((2,), "b")
    h.clear()
    assert len(h) == 0
    assert h.peek_key() is None


def test_mass_cancel_no_scan_blowup():
    # 10k pushes with 9k cancels should pop the survivors in order; a
    # re-heapify-per-cancel implementation would be quadratic here.
    h = IndexedHeap()
    entries = [h.push((i,), i) for i in range(10_000)]
    for e in entries:
        if e[-1] is not None and e[-1] % 10 != 0:
            h.cancel(e)
    out = [h.pop() for _ in range(len(h))]
    assert out == list(range(0, 10_000, 10))


# -- engine-level cancellation --------------------------------------------

def test_cancel_pending_timeout_never_fires():
    env = Environment()
    fired = []
    t = env.timeout(10)
    t.callbacks.append(lambda e: fired.append(e))
    assert env.cancel(t) is True
    env.timeout(20)  # keep the sim alive past t=10
    env.run_until_quiet(100)
    assert fired == []
    assert env.now == 100
    assert env.cancelled_events == 1


def test_cancel_then_fire_window():
    # Cancel an event, then schedule a new one at the same timestamp:
    # only the new one fires, and time still advances to it.
    env = Environment()
    fired = []
    doomed = env.timeout(10, value="doomed")
    doomed.callbacks.append(lambda e: fired.append(e.value))
    env.cancel(doomed)
    fresh = env.timeout(10, value="fresh")
    fresh.callbacks.append(lambda e: fired.append(e.value))
    env.run_until_quiet(50)
    assert fired == ["fresh"]


def test_cancel_is_idempotent_and_counts_once():
    env = Environment()
    t = env.timeout(10)
    assert env.cancel(t) is True
    assert env.cancel(t) is False
    assert env.cancelled_events == 1


def test_cancel_after_fire_returns_false():
    env = Environment()
    t = env.timeout(5)
    env.run_until_quiet(10)
    assert t.triggered
    assert env.cancel(t) is False


def test_event_cancel_method_delegates():
    env = Environment()
    t = env.timeout(10)
    assert t.cancel() is True
    assert env.cancelled_events == 1


def test_cancelled_events_do_not_count_as_processed():
    env = Environment()
    keep = env.timeout(10)
    for _ in range(5):
        env.cancel(env.timeout(3))
    env.run_until_quiet(20)
    assert keep.triggered
    assert env.processed_events == 1
    assert env.cancelled_events == 5


def test_peek_skips_cancelled_head():
    env = Environment()
    early = env.timeout(3)
    late = env.timeout(8)
    assert env.peek() == 3
    env.cancel(early)
    assert env.peek() == 8
    # Only tombstones left: the heap reads as empty.
    env.cancel(late)
    assert env.peek() == PEEK_NEVER
    with pytest.raises(EmptySchedule):
        env.step()
