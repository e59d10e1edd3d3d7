"""Interrupt controller and softirq machinery.

Hardware interrupts are delivered to a specific CPU (NIC interrupts
honour an affinity setting — the paper's testbed routes them to the
second CPU, visible in its Fig 6). Handling an interrupt *steals* time
from whatever task is running there: the scheduler pushes the task's
burst completion back by the service time.

The ``irq_stat`` structure — per-CPU counts of *pending* hard interrupts,
pending softirqs and cumulative handled counts — lives in kernel memory
and is exactly what the paper's e-RDMA-Sync scheme reads via RDMA. Its
key property: a user-space sampler only runs *after* the interrupt queues
have drained (the kernel prioritises interrupts over user processes), so
it observes near-zero pending counts; a NIC DMA engine samples it at
arbitrary instants and sees the real backlog.

A read of ``irq_stat`` (:meth:`IrqController.irq_stat`) returns one
record: a flat, exact tuple of ints, the time followed by one block of
``CPU_FIELDS`` counts per CPU::

    (time,
     pending[TIMER], ..., pending[IPI], handled[TIMER], ..., handled[IPI],
     softirq_backlog, bh_executed,          # CPU 0, from FIRST_CPU on
     ...)                                   # CPU 1, ...

Within a block, ``pending`` (hard interrupts raised but not yet
serviced) and ``handled`` (serviced so far) hold one count per
:class:`IrqVector`, at ``PENDING`` and ``HANDLED`` plus the vector's int
value; ``softirq_backlog`` counts queued bottom halves and
``bh_executed`` the ones run so far. The record holds no
:class:`IrqVector` member and no nested tuple, so CPython untracks it at
its first young collection (see :mod:`repro.kernel.loadavg` on why
records are flat) and a record in flight is never promoted.

Softirqs model the deferred half of packet processing: the NIC hard-IRQ
handler enqueues a per-packet work item; items are drained at interrupt
exit up to a budget, with the remainder handed to a per-CPU ``ksoftirqd``
kernel thread (nice +19), as in Linux.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.sim.events import EventPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node


class IrqVector(enum.IntEnum):
    """Interrupt sources."""

    TIMER = 0
    NIC = 1
    CQ = 2  # verbs completion-queue events (initiator side)
    IPI = 3


#: where CPU 0's block starts in an ``irq_stat`` record
FIRST_CPU = 1
#: offsets within one CPU's block
PENDING = 0
HANDLED = PENDING + len(IrqVector)
SOFTIRQ_BACKLOG = HANDLED + len(IrqVector)
BH_EXECUTED = SOFTIRQ_BACKLOG + 1
#: counts per CPU block
CPU_FIELDS = BH_EXECUTED + 1


class _CpuIrq:
    """One CPU's interrupt state and its service loop.

    Raised hard interrupts wait in three parallel FIFOs (vector, cost,
    action) and queued softirqs in two (cost, action), so a pending
    interrupt holds no tuple. The one in service sits in ``_action``
    (and ``_vector`` or ``_budget``). Its completion is a method bound
    once, at construction, so scheduling it builds no closure: with a
    warm ``call_later`` pool, a pending interrupt adds no object the
    cyclic collector tracks beyond the action its caller passed.
    """

    __slots__ = (
        "index",
        "env",
        "cfg",
        "sched",
        "hard_pending",
        "handled",
        "hard_vectors",
        "hard_costs",
        "hard_actions",
        "soft_costs",
        "soft_actions",
        "bh_executed",
        "in_service",
        "busy_until",
        "ksoftirqd",
        "ksoftirqd_kick",
        "_vector",
        "_action",
        "_budget",
        "_on_hard_done",
        "_on_soft_done",
    )

    def __init__(self, node: "Node", index: int) -> None:
        self.index = index
        self.env = node.env
        self.cfg = node.cfg
        self.sched = node.sched
        #: vector -> number of raised-but-unserviced hard interrupts
        self.hard_pending: List[int] = [0] * len(IrqVector)
        #: vector -> cumulative serviced count
        self.handled: List[int] = [0] * len(IrqVector)
        #: raised hard interrupts, oldest first
        self.hard_vectors: Deque[IrqVector] = deque()
        self.hard_costs: Deque[int] = deque()
        self.hard_actions: Deque[Optional[Callable[[], None]]] = deque()
        #: deferred (bottom-half) work, oldest first
        self.soft_costs: Deque[int] = deque()
        self.soft_actions: Deque[Optional[Callable[[], None]]] = deque()
        #: cumulative softirq (bottom-half) executions
        self.bh_executed = 0
        self.in_service = False
        #: absolute time until which this CPU is occupied by IRQ work
        self.busy_until = 0
        self.ksoftirqd = None
        self.ksoftirqd_kick = None
        self._vector = IrqVector.TIMER
        self._action: Optional[Callable[[], None]] = None
        self._budget = 0
        self._on_hard_done = self._hard_done
        self._on_soft_done = self._soft_done

    # ------------------------------------------------------------------
    # service loop (chained call_later; steals from the running task)
    # ------------------------------------------------------------------
    def enter_service(self) -> None:
        self.in_service = True
        now = self.env._now
        if self.busy_until < now:
            self.busy_until = now
        self._service_next()

    def _service_next(self) -> None:
        costs = self.hard_costs
        if costs:
            self._vector = self.hard_vectors.popleft()
            self._action = self.hard_actions.popleft()
            duration = self.cfg.irq.irq_entry + costs.popleft()
            self._occupy(duration)
            self.env.call_later(duration, self._on_hard_done, EventPriority.HIGH)
            return
        # Hard interrupts drained: run softirqs up to the budget.
        self._drain_softirqs(self.cfg.irq.softirq_budget)

    def _hard_done(self) -> None:
        vector, action = self._vector, self._action
        self._action = None
        self.hard_pending[vector] -= 1
        self.handled[vector] += 1
        if action is not None:
            action()
        self._service_next()

    def _drain_softirqs(self, budget: int) -> None:
        if self.hard_costs:
            # New hard IRQ arrived mid-drain: service it first.
            self._service_next()
            return
        costs = self.soft_costs
        if not costs or budget <= 0:
            if costs:
                self._kick_ksoftirqd()
            self._exit_service()
            return
        cost = costs.popleft()
        self._action = self.soft_actions.popleft()
        self._budget = budget
        self._occupy(cost)
        self.env.call_later(cost, self._on_soft_done, EventPriority.HIGH)

    def _soft_done(self) -> None:
        action = self._action
        self._action = None
        self.bh_executed += 1
        if action is not None:
            action()
        self._drain_softirqs(self._budget - 1)

    def _occupy(self, duration: int) -> None:
        busy, now = self.busy_until, self.env._now
        self.busy_until = (busy if busy > now else now) + duration
        self.sched.steal(self.index, duration, account="irq")

    def _exit_service(self) -> None:
        self.in_service = False
        self.sched.irq_exit_check(self.index)

    def _kick_ksoftirqd(self) -> None:
        kick = self.ksoftirqd_kick
        if kick is not None and not kick.triggered:
            kick.succeed()


class IrqController:
    """Per-node interrupt controller."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.env = node.env
        self.cfg = node.cfg
        self.percpu: List[_CpuIrq] = [_CpuIrq(node, i) for i in range(node.num_cpus)]
        self._rr_next = 0

    # ------------------------------------------------------------------
    # raising interrupts
    # ------------------------------------------------------------------
    def nic_target_cpu(self) -> int:
        """CPU receiving NIC interrupts (affinity or round-robin)."""
        affinity = self.cfg.irq.nic_irq_affinity
        ncpu = len(self.percpu)
        if 0 <= affinity < ncpu:
            return affinity
        self._rr_next = (self._rr_next + 1) % ncpu
        return self._rr_next

    def raise_irq(
        self,
        cpu_index: int,
        vector: IrqVector,
        cost: int,
        action: Optional[Callable[[], None]] = None,
    ) -> None:
        """Assert a hardware interrupt on ``cpu_index``.

        ``action`` runs when the handler body completes (e.g. the NIC
        handler enqueuing RX softirq work).
        """
        state = self.percpu[cpu_index]
        state.hard_pending[vector] += 1
        state.hard_vectors.append(vector)
        state.hard_costs.append(cost)
        state.hard_actions.append(action)
        tracer = self.node.tracer
        if tracer.enabled:
            tracer.emit(self.env.now, "irq.raise", (cpu_index, vector.name))
        if not state.in_service:
            state.enter_service()

    def raise_softirq(
        self, cpu_index: int, cost: int, action: Optional[Callable[[], None]] = None
    ) -> None:
        """Queue deferred (bottom-half) work on ``cpu_index``."""
        state = self.percpu[cpu_index]
        state.soft_costs.append(cost)
        state.soft_actions.append(action)
        if not state.in_service:
            state.enter_service()

    # ------------------------------------------------------------------
    # kernel-memory view (RDMA-readable)
    # ------------------------------------------------------------------
    def irq_stat(self) -> tuple:
        """The ``irq_stat`` record, *now* (layout in the module doc)."""
        record = [self.env.now]
        for cpu in self.percpu:
            record += cpu.hard_pending
            record += cpu.handled
            record.append(len(cpu.soft_costs))
            record.append(cpu.bh_executed)
        return tuple(record)

    def busy_until(self, cpu_index: int) -> int:
        """Time until which IRQ work occupies ``cpu_index`` (0 if free)."""
        return self.percpu[cpu_index].busy_until

    def total_handled(self, cpu_index: int) -> int:
        return sum(self.percpu[cpu_index].handled)

    # ------------------------------------------------------------------
    # ksoftirqd
    # ------------------------------------------------------------------
    def start_ksoftirqd(self) -> None:
        """Spawn one ksoftirqd kernel thread per CPU (call once at boot)."""
        for i in range(len(self.percpu)):
            state = self.percpu[i]
            if state.ksoftirqd is not None:
                continue
            kick = self.env.event(name=f"ksoftirqd-kick:{self.node.name}:{i}")
            state.ksoftirqd_kick = kick
            state.ksoftirqd = self.node.sched.spawn(
                f"ksoftirqd/{i}", self._ksoftirqd_body(i), nice=19, kthread=True
            )

    def _ksoftirqd_body(self, cpu_index: int):
        state = self.percpu[cpu_index]

        def body(k):
            while True:
                if not state.soft_costs:
                    kick = self.env.event(name=f"ksoftirqd-kick:{self.node.name}:{cpu_index}")
                    state.ksoftirqd_kick = kick
                    yield k.wait(kick)
                    continue
                cost = state.soft_costs.popleft()
                action = state.soft_actions.popleft()
                yield k.compute(cost, mode="sys")
                state.bh_executed += 1
                if action is not None:
                    action()

        return body
