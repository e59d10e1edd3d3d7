"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot synchronisation point. Processes wait on
events by ``yield``-ing them; the engine resumes every waiter when the
event is *triggered* and then *processed*. Events carry a value (or an
exception) to their waiters.

Determinism contract: when several events are scheduled for the same
timestamp they fire in ``(priority, sequence)`` order, where ``sequence``
is a monotonically increasing counter assigned at scheduling time. Nothing
in the kernel ever depends on hash ordering or wall-clock time.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Environment


class EventPriority(enum.IntEnum):
    """Scheduling priority for simultaneous events (lower fires first).

    ``URGENT`` is reserved for engine-internal bookkeeping (e.g. process
    resumption after an interrupt) so that user-visible causality is
    preserved; ``HIGH`` models hardware events (interrupt assertion)
    that must beat ordinary software timeouts scheduled for the same
    instant.
    """

    URGENT = 0
    HIGH = 1
    NORMAL = 2
    LOW = 3


class _Pending:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<pending>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence that processes can wait for.

    Lifecycle::

        created -> triggered (value/exception set, queued) -> processed

    ``succeed``/``fail`` move the event to *triggered*; the engine pops it
    from the queue and runs its callbacks, at which point it is
    *processed*. Waiting on an already-processed event resumes the waiter
    immediately (at the current time, URGENT priority).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_defused", "_entry", "name")

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        #: callbacks run when the event is processed; each receives the event
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._processed = False
        self._defused = False
        #: live queue entry while scheduled (see repro.sim.pqueue)
        self._entry: Optional[list] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine won't re-raise it."""
        self._defused = True

    def cancel(self) -> bool:
        """Cancel this event's pending dispatch, if any. O(1).

        Delegates to :meth:`~repro.sim.engine.Environment.cancel`: True
        iff the event was triggered but not yet dispatched; its
        callbacks will then never run.
        """
        return self.env.cancel(self)

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = EventPriority.NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._enqueue(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = EventPriority.NORMAL) -> "Event":
        """Trigger the event with an exception delivered to all waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._enqueue(self, priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- engine hook --------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called exactly once by the engine."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        assert callbacks is not None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Timeouts are by far the most-allocated event type (every simulated
    latency is one), so ``__init__`` is hand-flattened: fields are set
    inline instead of chaining ``Event.__init__``, the name stays empty
    (``__repr__`` reconstructs the label from ``delay``), and the queue
    entry is built inline and pushed onto the environment's heap in one
    call through ``env._push`` (a bound ``partial(heappush, queue)``)
    rather than going through ``Environment._enqueue``. The entry
    layout and sequence numbering are identical, so scheduling order
    is unchanged.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        env: "Environment",
        delay: int,
        value: Any = None,
        priority: int = EventPriority.NORMAL,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        delay = int(delay)
        self.env = env
        self.name = ""
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        self._entry = entry = [env._now + delay, priority, seq, self]
        env._push(entry)

    @property
    def triggered(self) -> bool:
        """A timeout is triggered at construction."""
        return True

    def __repr__(self) -> str:
        state = "processed" if self._processed else "triggered"
        return f"<Timeout({self.delay}) {state} at {id(self):#x}>"


class Hook:
    """A pooled fire-and-forget callback carrier (engine internal).

    Behaves just enough like an :class:`Event` for the dispatch loop:
    it accepts the loop's ``_entry`` write, reports
    ``_ok``/``_defused``/``_processed`` through constant class
    attributes, and ``_process`` runs exactly one no-argument callable —
    after which the carrier recycles itself into the environment's pool.
    Each carrier owns one heap entry, refilled in place every time
    :meth:`~repro.sim.engine.Environment.call_later` schedules it, so a
    warm pool schedules a callback without allocating any object the
    cyclic collector tracks; the callable itself is the caller's. Hooks
    cannot be waited on or cancelled; they are not part of the Event
    lifecycle.
    """

    __slots__ = ("env", "fn", "_entry", "_heap_entry")

    _ok = True
    _defused = False
    _processed = False
    name = ""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.fn: Optional[Callable[[], None]] = None
        #: written by the dispatch loop; a hook is never cancelled, so
        #: nothing reads it
        self._entry: Optional[list] = None
        #: this carrier's ``[time, priority, seq, self]`` heap entry;
        #: only rewritten while the carrier is pooled, i.e. off the heap
        self._heap_entry: list = [0, 0, 0, self]

    def _process(self) -> None:
        fn = self.fn
        self.fn = None
        # Recycle before the call: the heap entry was popped and fn is
        # dead, and the dispatch loop only reads the constant class
        # attributes afterwards, so a reentrant call_later from inside
        # fn() may safely reuse this carrier and its entry.
        self.env._hook_pool.append(self)
        fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "armed" if self.fn is not None else "pooled"
        return f"<Hook {state} at {id(self):#x}>"


class ConditionValue:
    """Mapping-like view of the events that fired in a condition.

    Preserves the order in which the condition's constituent events were
    given, exposing only those that are processed.
    """

    def __init__(self, events: List[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict:
        return {event: event.value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event over a fixed list of sub-events.

    ``evaluate`` decides when the condition is met; :class:`AllOf` and
    :class:`AnyOf` are the standard instantiations. A failed sub-event
    fails the whole condition immediately.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: List[Event],
    ) -> None:
        super().__init__(env, name=evaluate.__name__)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _collect_values(self) -> ConditionValue:
        return ConditionValue([e for e in self._events if e.processed])

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Fires when the first sub-event fires."""

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
