"""Linux-2.4-flavoured CPU scheduler.

Design notes
------------
* One **global run queue** per node (as in 2.4), with per-CPU *current*
  tasks. Selection is by *goodness* — remaining timeslice ``counter``
  plus a nice-derived weight — with FIFO tie-breaking.
* A 100 Hz **timer tick** per CPU decrements the running task's counter;
  when every runnable task's counter reaches zero an **epoch
  recalculation** refills all tasks' counters (sleepers accumulate up to
  a cap), at an O(number-of-tasks) CPU cost.
* **Wakeup preemption**: a woken task preempts the lowest-goodness
  running task if its goodness exceeds the victim's by a margin,
  otherwise it waits in the run queue — this is where a loaded node
  delays its monitoring daemon.
* **Interrupt steals**: IRQ/softirq work on a CPU pushes back the
  current task's burst completion (the task makes no progress while the
  CPU is in interrupt context) — see :meth:`Scheduler.steal`.

Accounting is exact at read time: :meth:`Scheduler.sync` charges partial
progress of in-flight bursts so that jiffies counters read via /proc (or
via RDMA from kernel memory) reflect the current instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.kernel.task import (
    Compute,
    Sleep,
    Task,
    TaskState,
    WaitEvent,
    YieldCpu,
)
from repro.sim.events import EventPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node


class CpuState:
    """Per-CPU scheduler state."""

    __slots__ = (
        "index",
        "current",
        "run_start",
        "stolen",
        "burst_deadline",
        "dispatch_seq",
        "need_resched",
        "user_ns",
        "sys_ns",
        "irq_ns",
        "ctx_switches",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.current: Optional[Task] = None
        #: when the current dispatch began
        self.run_start = 0
        #: ns stolen from the current burst by interrupts/ctx overhead
        self.stolen = 0
        #: absolute time the current compute op will finish (incl. steals)
        self.burst_deadline = 0
        #: bumped on every dispatch/deschedule; guards stale burst events
        self.dispatch_seq = 0
        self.need_resched = False
        # accounting (ns)
        self.user_ns = 0
        self.sys_ns = 0
        self.irq_ns = 0
        self.ctx_switches = 0

    @property
    def busy(self) -> bool:
        return self.current is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        task = self.current.name if self.current else "idle"
        return f"<CPU{self.index} {task}>"


class _Wakeup:
    """The callback a blocked task leaves on the event it waits for.

    One object per wait, so a pending wait holds a single tracked
    object. It wakes the task with the event's outcome only if the task
    is still blocked in the same wait (``version``): a task that moved
    on ignores a late firing.
    """

    __slots__ = ("sched", "task", "version", "boost")

    def __init__(self, sched: "Scheduler", task: Task, version: int, boost: bool) -> None:
        self.sched = sched
        self.task = task
        self.version = version
        self.boost = boost

    def __call__(self, ev) -> None:
        task = self.task
        if task._wait_version != self.version or task.state != TaskState.BLOCKED:
            return
        if ev.ok:
            self.sched.wake(task, value=ev.value, boost=self.boost)
        else:
            ev.defuse()
            self.sched.wake(task, exc=ev.value, boost=self.boost)


class Scheduler:
    """The per-node process scheduler."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.env = node.env
        self.cfg = node.cfg
        self.cpus: List[CpuState] = [CpuState(i) for i in range(node.num_cpus)]
        #: global run queue (READY tasks), FIFO order preserved for ties
        self.runqueue: List[Task] = []
        #: all live (non-exited) tasks on this node
        self.tasks: List[Task] = []
        #: cumulative counters
        self.total_epochs = 0
        self.total_wakeups = 0
        self._start_time = self.env.now

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        body_factory: Callable[..., Generator],
        nice: int = 0,
        kthread: bool = False,
        rss_bytes: Optional[int] = None,
    ) -> Task:
        """Create a task and make it runnable."""
        task = Task(self.node, name, body_factory, nice=nice, kthread=kthread,
                    rss_bytes=rss_bytes)
        task.counter = task.static_prio_ticks
        task.state = TaskState.READY
        self.tasks.append(task)
        self._enqueue(task)
        self._try_preempt_for(task)
        return task

    def wake(
        self,
        task: Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
        boost: bool = False,
    ) -> None:
        """Make a blocked task runnable, delivering ``value`` (or ``exc``).

        ``boost=True`` marks a network-delivery wakeup: the preemption
        check scans every CPU with no goodness margin (the high-priority
        packet path), instead of the sticky-CPU check with margin.
        """
        if task.state == TaskState.EXITED:
            return
        if task.is_runnable:
            return  # spurious wakeup
        task._send_value = exc if exc is not None else value
        task._wake_is_exc = exc is not None  # type: ignore[attr-defined]
        task.state = TaskState.READY
        task.wakeups += 1
        self.total_wakeups += 1
        self._enqueue(task)
        self._try_preempt_for(task, boost=boost)

    def nr_running(self) -> int:
        """Tasks READY or RUNNING (the classic run-queue length)."""
        return len(self.runqueue) + sum(1 for c in self.cpus if c.current is not None)

    def nr_threads(self) -> int:
        """All live tasks on this node."""
        return len(self.tasks)

    def rss_total(self) -> int:
        """Resident memory of all live tasks, bytes."""
        return sum(t.rss_bytes for t in self.tasks)

    def busy_cpus(self) -> int:
        """Instantaneous number of CPUs executing a task."""
        return sum(1 for c in self.cpus if c.current is not None)

    def sync(self) -> None:
        """Charge partial progress of all in-flight bursts up to *now*.

        After this, per-CPU jiffies counters are exact for the current
        instant — required before any /proc or RDMA read of them.
        """
        for cpu in self.cpus:
            self._sync_cpu(cpu)

    def requeue_orphans(self) -> None:
        """Re-queue RUNNING tasks that hold no CPU (recovery path).

        ``Node.fail("hung")`` clears every CPU's current task without a
        re-queue — the frozen kernel forgets who was on-CPU. On recovery
        those tasks are still marked RUNNING but own no CPU slot; flip
        them back to READY so :meth:`kick` can dispatch them.
        """
        on_cpu = {cpu.current for cpu in self.cpus if cpu.current is not None}
        for task in self.tasks:
            if task.state == TaskState.RUNNING and task not in on_cpu:
                task.state = TaskState.READY
                task.on_cpu = -1
                self._enqueue(task)

    def kick(self) -> None:
        """Dispatch onto every idle CPU (no-op while the node is failed)."""
        for cpu in self.cpus:
            if cpu.current is None:
                self._schedule(cpu)

    def jiffies(self, cpu_index: int) -> dict:
        """Per-CPU time accounting in ns: user/sys/irq/idle."""
        cpu = self.cpus[cpu_index]
        elapsed = self.env.now - self._start_time
        busy = cpu.user_ns + cpu.sys_ns + cpu.irq_ns
        return {
            "user": cpu.user_ns,
            "sys": cpu.sys_ns,
            "irq": cpu.irq_ns,
            "idle": max(0, elapsed - busy),
        }

    # ------------------------------------------------------------------
    # hooks for the interrupt controller
    # ------------------------------------------------------------------
    def steal(self, cpu_index: int, duration: int, account: str = "irq") -> None:
        """Interrupt context occupies this CPU for ``duration`` ns.

        The current task's burst completion is pushed back; the time is
        charged to the CPU's irq bucket.
        """
        cpu = self.cpus[cpu_index]
        if cpu.current is not None:
            cpu.stolen += duration
            cpu.burst_deadline += duration
        if account == "irq":
            cpu.irq_ns += duration
        else:
            cpu.sys_ns += duration

    def tick(self, cpu_index: int) -> None:
        """Timer-tick accounting: decrement the running task's counter."""
        cpu = self.cpus[cpu_index]
        task = cpu.current
        if task is None:
            return
        task.counter -= 1
        if task.counter <= 0:
            task.counter = 0
            cpu.need_resched = True

    def irq_exit_check(self, cpu_index: int) -> None:
        """Called at interrupt exit: honour a pending reschedule.

        Only when the interrupted task was in user mode — interrupt
        return into kernel mode does not reschedule (2.4 semantics);
        the op-boundary check in :meth:`_burst_end` catches it instead.
        """
        cpu = self.cpus[cpu_index]
        if not cpu.need_resched:
            return
        task = cpu.current
        if task is not None and self.cfg.cpu.kernel_nonpreemptible:
            op = task.current_op
            if isinstance(op, Compute) and op.mode == "sys":
                return  # defer to the kernel-exit boundary
        cpu.need_resched = False
        self._preempt(cpu)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _enqueue(self, task: Task) -> None:
        self.runqueue.append(task)

    def _try_preempt_for(self, task: Task, boost: bool = False) -> None:
        """Dispatch onto an idle CPU, or preempt a running task.

        Ordinary wakeups are sticky (2.4's ``reschedule_idle`` fast path,
        and the O(1) backport RH9 shipped): the woken task only
        preemption-checks ``p->processor`` with a goodness margin; losing
        means waiting in the run queue for a natural schedule point — on
        a loaded node this is what delays the monitoring daemon.

        Boosted (network-packet) wakeups scan every CPU with no margin —
        the "high priority packet" path (paper §3). The preempted worker
        re-queues with a drained counter behind the rested crowd, which
        is the per-poll perturbation the schemes with back-end threads
        inflict (Table 1's max-response tails, Fig 4/8).
        """
        for cpu in self.cpus:
            if cpu.current is None:
                self._schedule(cpu)
                return
        if boost and self.cfg.cpu.net_wake_boost:
            victim = min(self.cpus, key=lambda c: (c.current.goodness(), c.index))
            margin = 0
        elif self.cfg.cpu.sticky_wakeups:
            victim = self.cpus[task.last_cpu % len(self.cpus)]
            margin = self.cfg.cpu.wake_preempt_margin
        else:
            victim = min(self.cpus, key=lambda c: (c.current.goodness(), c.index))
            margin = self.cfg.cpu.wake_preempt_margin
        assert victim.current is not None
        if task.goodness() > victim.current.goodness() + margin:
            self._preempt_or_defer(victim)

    def _preempt_or_defer(self, cpu: CpuState) -> None:
        """Preempt now, unless the victim is in kernel mode.

        The 2.4 kernel is non-preemptible: a task executing a system-mode
        burst (a /proc scan, DB kernel work, socket TX) runs to the next
        kernel-exit boundary before ``need_resched`` is honoured.
        """
        task = cpu.current
        if task is None:
            self._schedule(cpu)
            return
        op = task.current_op
        if (
            self.cfg.cpu.kernel_nonpreemptible
            and isinstance(op, Compute)
            and op.mode == "sys"
        ):
            cpu.need_resched = True
            return
        self._preempt(cpu)

    def _preempt(self, cpu: CpuState) -> None:
        """Deschedule the current task back to the run queue, reschedule."""
        task = cpu.current
        if task is None:
            self._schedule(cpu)
            return
        self._sync_cpu(cpu)
        cpu.dispatch_seq += 1
        cpu.current = None
        task.on_cpu = -1
        task.state = TaskState.READY
        self._enqueue(task)
        self._schedule(cpu)

    def _sync_cpu(self, cpu: CpuState) -> None:
        """Charge the current burst's progress up to now."""
        task = cpu.current
        if task is None:
            return
        progressed = self.env.now - cpu.run_start - cpu.stolen
        if progressed <= 0:
            # Still inside stolen (interrupt/ctx) time: fold the elapsed
            # wall time into the baseline so later syncs stay exact.
            cpu.stolen -= self.env.now - cpu.run_start
            cpu.run_start = self.env.now
            return
        op = task.current_op
        assert isinstance(op, Compute)
        progressed = min(progressed, op.remaining)
        op.remaining -= progressed
        if op.mode == "user":
            cpu.user_ns += progressed
            task.user_ns += progressed
        else:
            cpu.sys_ns += progressed
            task.sys_ns += progressed
        cpu.run_start = self.env.now
        cpu.stolen = 0

    def _pick_next(self) -> Optional[Task]:
        """Select the best READY task; run epoch recalc if all expired."""
        if not self.runqueue:
            return None
        best = max(self.runqueue, key=lambda t: t.goodness())
        if best.goodness() == 0:
            # Everyone runnable is out of timeslice *including tasks
            # currently running on other CPUs* — 2.4 recalculates when the
            # run queue is exhausted; we approximate with the run queue.
            self._recalc_epoch()
            best = max(self.runqueue, key=lambda t: t.goodness())
        self.runqueue.remove(best)
        return best

    def _recalc_epoch(self) -> int:
        """Refill every task's counter; returns the CPU cost of the scan."""
        self.total_epochs += 1
        cap = self.cfg.cpu.counter_cap_ticks
        for task in self.tasks:
            task.counter = min(cap, task.counter // 2 + task.static_prio_ticks)
        cost = self.cfg.cpu.recalc_base + self.cfg.cpu.recalc_per_task * len(self.tasks)
        self._pending_recalc_cost = cost
        return cost

    _pending_recalc_cost: int = 0

    def _schedule(self, cpu: CpuState) -> None:
        """Pick and dispatch the next task on an idle CPU."""
        assert cpu.current is None
        node = self.node
        if node.failure_mode != "up":
            return  # frozen kernel: nothing is ever dispatched again
        task = self._pick_next()
        if task is None:
            return  # CPU goes idle
        overhead = self.cfg.cpu.context_switch + self._pending_recalc_cost
        self._pending_recalc_cost = 0
        # If the CPU is mid-interrupt, the new task only starts once the
        # IRQ work completes (that time is already charged to the irq
        # bucket by the controller — extend the burst without re-charging).
        irq_wait = node.irq.percpu[cpu.index].busy_until - self.env.now
        if irq_wait < 0:
            irq_wait = 0
        cpu.ctx_switches += 1
        cpu.sys_ns += overhead
        cpu.current = task
        cpu.dispatch_seq += 1
        cpu.run_start = self.env.now
        cpu.stolen = overhead + irq_wait
        task.state = TaskState.RUNNING
        task.on_cpu = cpu.index
        task.last_cpu = cpu.index
        task.dispatches += 1
        self._begin_or_advance(cpu)

    def _begin_or_advance(self, cpu: CpuState) -> None:
        """Start the current op, advancing the generator if needed."""
        task = cpu.current
        assert task is not None
        while True:
            op = task.current_op
            if op is None:
                if not self._advance(task, cpu):
                    return  # task exited or blocked; CPU rescheduled
                continue
            if isinstance(op, Compute):
                if op.remaining <= 0:
                    task.current_op = None
                    continue
                cpu.burst_deadline = cpu.run_start + cpu.stolen + op.remaining
                self._arm_burst_end(cpu)
                return
            raise AssertionError(f"unexpected resident op {op!r}")

    def _arm_burst_end(self, cpu: CpuState) -> None:
        seq = cpu.dispatch_seq
        delay = cpu.burst_deadline - self.env.now
        assert delay >= 0
        self.env.call_later(delay,
                            lambda cpu=cpu, seq=seq: self._burst_end(cpu, seq),
                            priority=EventPriority.NORMAL)

    def _burst_end(self, cpu: CpuState, seq: int) -> None:
        if cpu.dispatch_seq != seq:
            return  # stale: task was descheduled meanwhile
        if self.env.now < cpu.burst_deadline:
            # Interrupt steals extended the burst; re-arm for the new deadline.
            self._arm_burst_end(cpu)
            return
        task = cpu.current
        assert task is not None
        self._sync_cpu(cpu)
        op = task.current_op
        assert isinstance(op, Compute) and op.remaining == 0, (task, op)
        task.current_op = None
        task._send_value = None
        # Kernel-exit boundary: honour a reschedule deferred while this
        # task was in kernel mode.
        if cpu.need_resched:
            cpu.need_resched = False
            task.state = TaskState.READY
            task.on_cpu = -1
            cpu.dispatch_seq += 1
            cpu.current = None
            self._enqueue(task)
            self._schedule(cpu)
            return
        self._begin_or_advance(cpu)

    def _advance(self, task: Task, cpu: CpuState) -> bool:
        """Send the pending value into the body; interpret the next op.

        Returns True if the task is still on this CPU with a new
        ``current_op`` to consider, False if it blocked/exited (in which
        case the CPU has been rescheduled).
        """
        value = task._send_value
        is_exc = getattr(task, "_wake_is_exc", False)
        task._send_value = None
        task._wake_is_exc = False  # type: ignore[attr-defined]
        try:
            if is_exc:
                op = task.body.throw(value)
            else:
                op = task.body.send(value)
        except StopIteration as stop:
            self._exit_task(task, cpu, stop.value, None)
            return False
        except BaseException as exc:  # task body crashed
            self._exit_task(task, cpu, None, exc)
            return False

        if isinstance(op, Compute):
            task.current_op = op
            return True
        if isinstance(op, Sleep):
            self._block(task, cpu)
            t = self.env.timeout(op.duration)
            assert t.callbacks is not None
            t.callbacks.append(_Wakeup(self, task, task._wait_version, False))
            return False
        if isinstance(op, WaitEvent):
            event = op.event
            boost = op.boost
            self._block(task, cpu)
            if event.processed:
                # Resume promptly (still requires a trip through the
                # scheduler, as a real wakeup would).
                if event.ok:
                    self.wake(task, value=event.value, boost=boost)
                else:
                    event.defuse()
                    self.wake(task, exc=event.value, boost=boost)
            else:
                assert event.callbacks is not None
                event.callbacks.append(_Wakeup(self, task, task._wait_version, boost))
            return False
        if isinstance(op, YieldCpu):
            task.state = TaskState.READY
            task.on_cpu = -1
            cpu.dispatch_seq += 1
            cpu.current = None
            self._enqueue(task)
            self._schedule(cpu)
            return False
        raise TypeError(f"task {task.name!r} yielded unsupported op {op!r}")

    def _block(self, task: Task, cpu: CpuState) -> None:
        task.state = TaskState.BLOCKED
        task.on_cpu = -1
        task._wait_version += 1
        cpu.dispatch_seq += 1
        cpu.current = None
        self._schedule(cpu)

    def _exit_task(self, task: Task, cpu: CpuState, value: Any, exc: Optional[BaseException]) -> None:
        task.state = TaskState.EXITED
        task.on_cpu = -1
        task.current_op = None
        try:
            self.tasks.remove(task)
        except ValueError:  # pragma: no cover - defensive
            pass
        cpu.dispatch_seq += 1
        cpu.current = None
        if exc is not None:
            task.done.fail(exc)
        else:
            task.done.succeed(value)
        self._schedule(cpu)
