"""Shared-resource primitives built on the event kernel.

These mirror two of the classic SimPy resources:

* :class:`Resource` — N identical slots, granted lowest-priority-value
  first (FIFO within a priority level).
* :class:`Store` — a FIFO buffer of Python objects with blocking get/put.

All waiting is strictly deterministic: queues are explicit lists ordered
by (priority, arrival sequence).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.pqueue import IndexedHeap

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ...

    which guarantees release even if the process is interrupted.
    """

    __slots__ = ("resource", "priority", "_order", "_qentry")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env, name=f"req:{resource.name}")
        self.resource = resource
        self.priority = priority
        resource._seq += 1
        self._order = resource._seq
        #: live wait-queue entry while queued (see repro.sim.pqueue)
        self._qentry: Optional[list] = None
        resource._request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical slots with FIFO (or priority) queueing."""

    def __init__(self, env: "Environment", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._seq = 0
        self.users: List[Request] = []
        #: waiting requests keyed by (priority, order); live-count aware
        self.queue: IndexedHeap = IndexedHeap()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self, priority: int = 0) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a slot. Safe to call for a never-granted request."""
        try:
            self.users.remove(request)
        except ValueError:
            self._cancel(request)
            return
        self._grant_next()

    # -- internals ----------------------------------------------------------
    def _request(self, request: Request) -> None:
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(request)
            request.succeed()
        else:
            request._qentry = self.queue.push(
                (request.priority, request._order), request
            )

    def _cancel(self, request: Request) -> None:
        # O(1): tombstone the entry; _grant_next discards it when it
        # surfaces (previously this scanned and re-heapified the queue).
        entry = request._qentry
        if entry is not None:
            request._qentry = None
            self.queue.cancel(entry)

    def _grant_next(self) -> None:
        queue = self.queue
        users = self.users
        while queue and len(users) < self.capacity:
            request = queue.pop()
            request._qentry = None
            if request.triggered:
                continue
            users.append(request)
            request.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.name} {self.count}/{self.capacity} q={len(self.queue)}>"


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ("store", "filter")

    def __init__(self, store: "Store", item_filter: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.env, name=f"get:{store.name}")
        self.store = store
        self.filter = item_filter
        store._getters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        try:
            self.store._getters.remove(self)
        except ValueError:
            pass


class StorePut(Event):
    """Pending insertion into a bounded :class:`Store`."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env, name=f"put:{store.name}")
        self.store = store
        self.item = item
        store._putters.append(self)
        store._dispatch()


class Store:
    """FIFO object buffer with blocking get/put.

    ``capacity`` bounds the number of buffered items; ``put`` blocks when
    full. ``get`` optionally takes a filter predicate (first matching item
    is returned, preserving FIFO order among matches).
    """

    def __init__(self, env: "Environment", capacity: int = 2**62, name: str = "store") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; fires when the item is buffered."""
        return StorePut(self, item)

    def get(self, item_filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Remove and return the first (matching) item; blocks if none."""
        return StoreGet(self, item_filter)

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking pop: ``(True, item)`` or ``(False, None)``."""
        if self.items and not self._getters:
            return True, self.items.popleft()
        return False, None

    def __len__(self) -> int:
        return len(self.items)

    # -- internals ----------------------------------------------------------
    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit pending puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy pending gets.
            i = 0
            while i < len(self._getters) and self.items:
                getter = self._getters[i]
                matched_idx = None
                if getter.filter is None:
                    matched_idx = 0
                else:
                    for j, item in enumerate(self.items):
                        if getter.filter(item):
                            matched_idx = j
                            break
                if matched_idx is None:
                    i += 1
                    continue
                item = self.items[matched_idx]
                del self.items[matched_idx]
                self._getters.pop(i)
                getter.succeed(item)
                progress = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Store {self.name} n={len(self.items)}>"
