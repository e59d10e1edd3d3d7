"""Node composition: CPUs + memory + NIC + kernel services.

A node is the unit the paper monitors: a dual-CPU back-end server (or
the lightly-loaded front-end). ``boot()`` starts the per-CPU timer-tick
loops and ksoftirqd threads and maps the *live* kernel memory regions
(`kern.load`, `kern.irq_stat`) that RDMA-Sync registers for remote reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, List

from repro.hw.cpu import CpuModel
from repro.hw.memory import Memory
from repro.hw.nic import Nic
from repro.kernel.interrupts import IrqController, IrqVector
from repro.kernel.kmod import KernelModule
from repro.kernel.loadavg import LoadAccounting
from repro.kernel.netstack import NetStack
from repro.kernel.procfs import ProcFs
from repro.kernel.scheduler import Scheduler
from repro.kernel.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SimConfig
    from repro.sim.engine import Environment


#: wire sizes of the live kernel regions (bytes) — what an RDMA read moves
KERN_LOAD_BYTES = 128
KERN_IRQSTAT_BYTES = 96


class Node:
    """One cluster node."""

    def __init__(
        self,
        env: "Environment",
        cfg: "SimConfig",
        name: str,
        index: int,
        num_cpus: int | None = None,
    ) -> None:
        self.env = env
        self.cfg = cfg
        self.name = name
        self.index = index
        #: causal span tracer (attached by build_cluster; None = untraced)
        self.span_tracer = None
        #: CPUs on this node (the client farm gets more than the servers)
        self.num_cpus = num_cpus if num_cpus is not None else cfg.cpu.num_cpus
        if self.num_cpus < 1:
            raise ValueError("a node needs at least one CPU")

        self.cpu_models: List[CpuModel] = [
            CpuModel(i) for i in range(self.num_cpus)
        ]
        #: kernel-visible application gauges (connection counts, queue
        #: depths) published by servers and exported in load snapshots
        self.gauges: dict = {}
        self.memory = Memory(name)
        self.nic = Nic(f"nic:{name}")
        self.nic.node = self

        self.sched = Scheduler(self)
        self.irq = IrqController(self)
        self.loadacct = LoadAccounting(self)
        self.procfs = ProcFs(self)
        self.kmod = KernelModule(self)
        self.netstack = NetStack(self)

        #: failure state: "up", "hung" (kernel livelocked; NIC alive),
        #: or "crashed" (off the fabric entirely)
        self.failure_mode = "up"
        #: tick-loop generation: bumped by fail()/recover() so a suspended
        #: pre-failure loop can never resume alongside post-recovery loops
        self._tick_gen = 0
        self._booted = False

    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Start timer ticks, ksoftirqd, and map live kernel regions."""
        if self._booted:
            return
        self._booted = True
        self.irq.start_ksoftirqd()
        for cpu_index in range(self.num_cpus):
            self.env.process(self._tick_loop(cpu_index), name=f"tick:{self.name}:{cpu_index}")
        # Live kernel memory — always current, DMA-readable.
        self.memory.alloc_live("kern.load", KERN_LOAD_BYTES, self.loadacct.snapshot)
        self.memory.alloc_live("kern.irq_stat", KERN_IRQSTAT_BYTES, self.irq.irq_stat)

    def _tick_loop(self, cpu_index: int, gen: int = 0) -> Generator:
        tick = self.cfg.cpu.tick
        cost = self.cfg.cpu.timer_irq_cost

        def on_timer(cpu_index: int = cpu_index) -> None:
            self.sched.tick(cpu_index)
            if cpu_index == 0:
                self.loadacct.on_tick()

        while self.failure_mode == "up" and gen == self._tick_gen:
            yield self.env.timeout(tick)
            if gen != self._tick_gen:
                return  # superseded by a fail/recover cycle mid-sleep
            self.irq.raise_irq(cpu_index, IrqVector.TIMER, cost, action=on_timer)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True unless the node has crashed off the fabric."""
        return self.failure_mode != "crashed"

    def fail(self, mode: str = "crashed") -> None:
        """Inject a failure.

        * ``"hung"`` — kernel livelock: the timer dies and no task makes
          progress, but the HCA keeps answering one-sided operations
          against (now-frozen) kernel memory. An RDMA heartbeat sees the
          tick counter stop; a socket monitor just never replies.
        * ``"crashed"`` — the node drops off the fabric: packets and
          RDMA requests are silently lost.
        """
        if mode not in ("hung", "crashed"):
            raise ValueError(f"unknown failure mode {mode!r}")
        self.failure_mode = mode
        self._tick_gen += 1  # retire the running tick loops
        if mode == "hung":
            # Freeze the kernel: deschedule everything so nothing advances.
            for cpu in self.sched.cpus:
                cpu.dispatch_seq += 1  # cancels in-flight burst-end events
                cpu.current = None

    def recover(self) -> None:
        """Undo a failure: restart timer ticks and resume frozen tasks.

        The node reboots *warm* — task state, memory registrations and
        socket buffers survive (the paper's hung-kernel scenario is a
        livelock, not a power cycle). Tasks that were frozen mid-burst
        resume from the start of their interrupted burst; the heartbeat
        monitor re-marks the node ALIVE once its tick counter advances
        again.
        """
        if self.failure_mode == "up":
            return
        self.failure_mode = "up"
        self._tick_gen += 1
        if self._booted:
            gen = self._tick_gen
            for cpu_index in range(self.num_cpus):
                self.env.process(self._tick_loop(cpu_index, gen),
                                 name=f"tick:{self.name}:{cpu_index}:g{gen}")
        # Tasks caught RUNNING at failure time were orphaned (their CPU
        # slot was cleared without a re-queue); make them runnable and
        # restart dispatching on every idle CPU.
        self.sched.requeue_orphans()
        self.sched.kick()

    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        body_factory: Callable[..., Generator],
        nice: int = 0,
        kthread: bool = False,
        rss_bytes: int | None = None,
    ) -> Task:
        """Start a task (thread) on this node."""
        return self.sched.spawn(name, body_factory, nice=nice, kthread=kthread,
                                rss_bytes=rss_bytes)

    # -- convenience views -------------------------------------------------
    def cpu_utilisation(self) -> float:
        """Instantaneous fraction of CPUs executing a task."""
        return self.sched.busy_cpus() / self.num_cpus

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} tasks={self.sched.nr_threads()}>"
