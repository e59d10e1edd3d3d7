"""The discrete-event engine.

:class:`Environment` owns the clock and the pending-event heap and
drives the simulation. It is deliberately minimal: all domain behaviour
(CPUs, NICs, kernels) is built as processes and events on top of it.

Performance notes
-----------------
This module is the hottest code in the repository — every simulated
nanosecond flows through it — so it trades a little uniformity for
speed in three deliberate ways:

* The heap holds **mutable list entries** ``[time, priority, seq,
  event]`` (the :mod:`repro.sim.pqueue` convention) instead of tuples.
  Each scheduled event carries its entry in ``event._entry``, which
  makes :meth:`Environment.cancel` a single O(1) slot write — no
  tombstone scans, no re-heapify. Dead entries are discarded when they
  surface at the head, each exactly once.
* The pending events live in **one plain ``heapq`` list** owned by the
  environment. Inserts go through a bound
  ``functools.partial(heappush, queue)`` (``env._push``), one C call
  with no Python frame; there is no queue object between the engine
  and the heap.
* :meth:`run` inlines the pop/dispatch loop per ``until`` mode rather
  than calling :meth:`step`, binding the heap and ``heappop`` to locals
  and reading event state through slots directly. ``step`` and
  ``peek`` remain for incremental driving and tests.

Sequence numbers stay globally monotonic and unique, so entry
comparison never reaches the event slot and dispatch order is a pure
function of ``(time, priority, seq)`` — byte-identical to the
historical tuple heap for any same-seed run.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Generator, List, Optional

from repro.sim.events import AllOf, AnyOf, Event, EventPriority, Hook, Timeout
from repro.sim.process import Process

#: what :meth:`Environment.peek` returns when nothing is scheduled
PEEK_NEVER = 2**63 - 1


class SimulationError(Exception):
    """Raised for structural misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised inside a process to stop the whole simulation immediately."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """Internal: the event queue ran dry."""


class Environment:
    """A simulation environment: clock, event heap, process factory.

    Parameters
    ----------
    initial_time:
        Starting value of the nanosecond clock.

    Notes
    -----
    Entries are ``[time, priority, sequence, event]`` lists.
    ``sequence`` increases monotonically with each scheduling operation,
    so simultaneous same-priority events fire in the exact order they
    were scheduled — the keystone of reproducibility. Cancelled entries
    have their event slot set to ``None`` and are dropped when they
    reach the head of the heap.
    """

    __slots__ = ("_now", "_queue", "_push", "_seq", "_active_process",
                 "_hook_pool", "processed_events", "cancelled_events")

    def __init__(self, initial_time: int = 0) -> None:
        self._now: int = int(initial_time)
        #: pending entries, ordered by heapq
        self._queue: List[list] = []
        #: bound fast-path insert, used by Timeout.__init__ directly
        self._push = partial(heappush, self._queue)
        self._seq: int = 0
        #: recycled Hook carriers for call_later (see repro.sim.events)
        self._hook_pool: List[Hook] = []
        self._active_process: Optional[Process] = None
        #: number of events processed so far (diagnostics / tests)
        self.processed_events: int = 0
        #: number of scheduled events cancelled before dispatch
        self.cancelled_events: int = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories -----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None, priority: int = EventPriority.NORMAL) -> Timeout:
        """Create an event that fires ``delay`` nanoseconds from now."""
        # Positional on purpose: keywords make the type call build a
        # kwargs dict, about 30% of a Timeout's construction cost.
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, event: Event, priority: int) -> None:
        """Schedule a triggered event for processing at the current time."""
        self._seq = seq = self._seq + 1
        event._entry = entry = [self._now, priority, seq, event]
        self._push(entry)

    def call_later(self, delay: int, fn, priority: int = EventPriority.NORMAL) -> None:
        """Schedule ``fn()`` to run ``delay`` ns from now (fire-and-forget).

        The fast path for hardware service callbacks (NIC DMA
        completion, wire arrival): the carrier and its heap entry come
        from — and return to — an internal pool, so with a warm pool
        scheduling allocates no object the cyclic collector tracks. The
        callable is the caller's: a bound method of a long-lived object
        costs one small method object, a closure built per operation
        costs a function, its cells and their tuple. The schedule is
        deliberately not cancellable and not waitable; use
        :meth:`timeout` when a handle is needed. Ordering is the
        ordinary ``(time, priority, seq)`` contract, identical to an
        equivalently-scheduled timeout.

        ``delay`` must be an ``int``: unlike :meth:`timeout` this path
        does not coerce, and a float would turn the clock into a float.
        """
        if not isinstance(delay, int):
            raise TypeError(
                f"call_later delay must be an int number of ns, got {delay!r}")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        pool = self._hook_pool
        hook = pool.pop() if pool else Hook(self)
        hook.fn = fn
        self._seq = seq = self._seq + 1
        entry = hook._heap_entry
        entry[0] = self._now + delay
        entry[1] = priority
        entry[2] = seq
        self._push(entry)

    def cancel(self, event: Event) -> bool:
        """Cancel a scheduled event before it dispatches. O(1).

        Returns True if the event was pending dispatch (its callbacks
        will now never run and it will never count as processed), False
        if it was not scheduled — never triggered, already processed, or
        already cancelled. Does not touch the heap: the dead entry is
        discarded when it surfaces.
        """
        entry = event._entry
        if entry is None:
            return False
        entry[3] = None
        event._entry = None
        self.cancelled_events += 1
        return True

    def peek(self) -> int:
        """Time of the next scheduled event, or :data:`PEEK_NEVER` if none."""
        queue = self._queue
        while queue:
            head = queue[0]
            if head[3] is not None:
                return head[0]
            heappop(queue)
        return PEEK_NEVER

    def step(self) -> None:
        """Process the next event. Raises :class:`EmptySchedule` if none."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            event = entry[3]
            if event is not None:
                break
        else:
            raise EmptySchedule()
        event._entry = None
        self._now = entry[0]
        self.processed_events += 1
        event._process()
        # An un-handled failure propagates out of the run loop unless
        # some waiter defused it (e.g. a process that caught the
        # exception).
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * an ``int`` — run until that absolute time (clock lands exactly
          on it);
        * an :class:`Event` — run until that event is processed, returning
          its value.
        """
        if until is None:
            return self._run_drain()
        if isinstance(until, Event):
            return self._run_until_event(until)
        horizon = int(until)
        if horizon < self._now:
            raise SimulationError(
                f"until={horizon} is in the past (now={self._now})"
            )
        return self._run_until_time(horizon)

    def _run_drain(self) -> Any:
        """run(None): drain the queue completely."""
        queue = self._queue
        pop = heappop
        processed = self.processed_events
        try:
            while queue:
                entry = pop(queue)
                event = entry[3]
                if event is None:
                    continue
                event._entry = None
                self._now = entry[0]
                processed += 1
                self.processed_events = processed
                event._process()
                if not event._ok and not event._defused:
                    raise event._value
            return None
        except StopSimulation as stop:
            return stop.value

    def _run_until_event(self, stop_event: Event) -> Any:
        """run(event): dispatch until ``stop_event`` is processed."""
        queue = self._queue
        pop = heappop
        try:
            while not stop_event._processed:
                if not queue:
                    raise SimulationError(
                        f"run() until-event {stop_event!r} can never fire: "
                        "event queue is empty"
                    )
                entry = pop(queue)
                event = entry[3]
                if event is None:
                    continue
                event._entry = None
                self._now = entry[0]
                self.processed_events += 1
                event._process()
                if not event._ok and not event._defused:
                    raise event._value
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        except StopSimulation as stop:
            return stop.value

    def _run_until_time(self, horizon: int) -> Any:
        """run(int): dispatch everything at or before ``horizon``."""
        queue = self._queue
        pop = heappop
        processed = self.processed_events
        try:
            while queue:
                entry = queue[0]
                event = entry[3]
                if event is None:
                    pop(queue)
                    continue
                if entry[0] > horizon:
                    break
                pop(queue)
                event._entry = None
                self._now = entry[0]
                processed += 1
                self.processed_events = processed
                event._process()
                if not event._ok and not event._defused:
                    raise event._value
            self._now = horizon
            return None
        except StopSimulation as stop:
            return stop.value

    def run_until_quiet(self, max_time: int) -> None:
        """Run until nothing is scheduled before ``max_time``; clamp clock."""
        queue = self._queue
        pop = heappop
        processed = self.processed_events
        while queue:
            entry = queue[0]
            event = entry[3]
            if event is None:
                pop(queue)
                continue
            if entry[0] > max_time:
                break
            pop(queue)
            event._entry = None
            self._now = entry[0]
            processed += 1
            self.processed_events = processed
            event._process()
            if not event._ok and not event._defused:
                raise event._value
        if self._now < max_time:
            self._now = max_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment t={self._now} queued={len(self._queue)}>"
