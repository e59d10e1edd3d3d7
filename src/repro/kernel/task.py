"""Kernel tasks (threads) and the operations they may perform.

A task's behaviour is a generator produced by a *body factory*::

    def body(k: TaskContext):
        yield k.compute(us(500))            # burn CPU (user mode)
        yield k.sleep(ms(50))               # block on a timer
        value = yield k.wait(some_event)    # block on a sim event
        data = yield from k.node.procfs.read_stat(k)  # composite syscall

The generator yields :class:`Op` descriptors; the scheduler interprets
them. Composite kernel services (``/proc`` reads, socket calls, verbs
calls) are sub-generators used via ``yield from`` so their CPU costs run
under this task's identity and priority.

Tasks are *not* sim processes: they only advance while holding a CPU,
which is exactly how a loaded back-end delays its monitoring daemon in
the paper.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node


class TaskState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    EXITED = "exited"


class Op:
    """Base class of operations a task body may yield."""

    __slots__ = ()


class Compute(Op):
    """Consume ``amount`` ns of CPU time. ``mode`` is 'user' or 'sys'."""

    __slots__ = ("remaining", "mode")

    def __init__(self, amount: int, mode: str = "user") -> None:
        if amount < 0:
            raise ValueError(f"negative compute amount: {amount}")
        if mode not in ("user", "sys"):
            raise ValueError(f"bad compute mode: {mode}")
        self.remaining = int(amount)
        self.mode = mode

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.remaining}ns, {self.mode})"


class Sleep(Op):
    """Block for a fixed duration (interruptible sleep)."""

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        if duration < 0:
            raise ValueError(f"negative sleep duration: {duration}")
        self.duration = int(duration)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sleep({self.duration}ns)"


class WaitEvent(Op):
    """Block until a simulation event fires; its value is sent back.

    ``boost`` marks waits whose wakeup arrives from the network receive
    path: the kernel "treats it as a high priority packet and tries to
    schedule the resource monitoring process as early as possible"
    (paper §3) — such wakeups get an aggressive preemption check.
    """

    __slots__ = ("event", "boost")

    def __init__(self, event: Event, boost: bool = False) -> None:
        self.event = event
        self.boost = boost

    def __repr__(self) -> str:  # pragma: no cover
        return f"Wait({self.event!r}{', boost' if self.boost else ''})"


class YieldCpu(Op):
    """Voluntarily relinquish the CPU (sched_yield)."""

    __slots__ = ()


class Task:
    """A schedulable kernel thread."""

    _next_tid = [1]

    #: default resident-set size of a task (bytes) — used by the memory
    #: load index; servers override per process type
    DEFAULT_RSS = 2 * 1024 * 1024

    def __init__(
        self,
        node: "Node",
        name: str,
        body_factory: Callable[["TaskContext"], Generator],
        nice: int = 0,
        kthread: bool = False,
        rss_bytes: int | None = None,
    ) -> None:
        if not -20 <= nice <= 19:
            raise ValueError(f"nice must be in [-20, 19], got {nice}")
        self.node = node
        self.name = name
        self.tid = Task._next_tid[0]
        Task._next_tid[0] += 1
        self.nice = nice
        #: kernel thread flag (excluded from some /proc user-thread counts)
        self.kthread = kthread
        #: resident memory attributed to this task (kthreads: none)
        self.rss_bytes = (
            rss_bytes if rss_bytes is not None
            else (0 if kthread else Task.DEFAULT_RSS)
        )
        self.state = TaskState.NEW
        self.ctx = TaskContext(self)
        self.body: Generator = body_factory(self.ctx)
        #: operation currently being executed / waited upon
        self.current_op: Optional[Op] = None
        #: scheduler bookkeeping — remaining timeslice in ticks
        self.counter: int = 0
        #: CPU the task is currently running on (index), or -1
        self.on_cpu: int = -1
        #: CPU the task last ran on — wakeup preemption only targets this
        #: CPU (2.4's ``p->processor`` stickiness), which is what delays a
        #: woken monitoring daemon on a loaded node
        self.last_cpu: int = (self.tid % max(1, node.num_cpus))
        #: statistics
        self.user_ns = 0
        self.sys_ns = 0
        self.wakeups = 0
        self.dispatches = 0
        #: completion event, made on first use (see :attr:`done`)
        self._done: Optional[Event] = None
        #: value to send into the generator on next advance
        self._send_value: Any = None
        #: pending wakeup callback guard (versioning for sleep/wait races)
        self._wait_version = 0

    @property
    def done(self) -> Event:
        """Completion event: fires with the body's return value, or fails
        with the exception that ended it.

        Made on first read. The scheduler reads it when the task exits,
        so every task still triggers exactly one completion event; a
        task that runs for the whole simulation, as most do, never
        carries one.
        """
        done = self._done
        if done is None:
            done = self._done = Event(self.node.env, name=f"task-done:{self.name}")
        return done

    # -- priority ----------------------------------------------------------
    @property
    def static_prio_ticks(self) -> int:
        """Timeslice grant in ticks, derived from nice (2.4 style)."""
        base = self.node.cfg.cpu.timeslice_ticks
        # nice -20 → ~2x base; nice +19 → minimum 1 tick
        ticks = round(base * (20 - self.nice) / 20)
        return max(1, ticks)

    def goodness(self) -> int:
        """2.4-style dynamic priority: remaining counter + nice weight."""
        if self.counter <= 0:
            return 0
        return self.counter + (20 - self.nice)

    @property
    def is_runnable(self) -> bool:
        return self.state in (TaskState.READY, TaskState.RUNNING)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name}#{self.tid} {self.state.value} cnt={self.counter}>"


class TaskContext:
    """Capability handle given to a task body.

    Provides op constructors plus access to the owning node's kernel
    services. ``k.now`` reads the simulation clock.
    """

    def __init__(self, task: Task) -> None:
        self.task = task

    @property
    def node(self) -> "Node":
        return self.task.node

    @property
    def env(self):
        return self.task.node.env

    @property
    def now(self) -> int:
        return self.task.node.env.now

    # -- op constructors ------------------------------------------------------
    def compute(self, amount: int, mode: str = "user") -> Compute:
        return Compute(amount, mode)

    def sleep(self, duration: int) -> Sleep:
        return Sleep(duration)

    def wait(self, event: Event, boost: bool = False) -> WaitEvent:
        return WaitEvent(event, boost=boost)

    def yield_cpu(self) -> YieldCpu:
        return YieldCpu()

    # -- composite helpers -----------------------------------------------------
    def syscall(self, extra_cost: int = 0) -> Compute:
        """A bare kernel trap, optionally with extra in-kernel work."""
        return Compute(self.node.cfg.syscall.trap + extra_cost, mode="sys")

    def copy_cost(self, nbytes: int) -> int:
        """Kernel<->user copy cost for ``nbytes``."""
        per_kb = self.node.cfg.syscall.copy_per_kb
        return max(1, (nbytes * per_kb) // 1024)
