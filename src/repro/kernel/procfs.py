"""/proc emulation.

User-space monitoring daemons obtain system statistics by reading /proc
(the paper's §3.1). The cost model captures the two components that make
this expensive on a loaded node:

* a kernel trap plus a fixed assembly cost, and
* an **O(number-of-tasks)** scan of the task list (per-process stats are
  assembled by walking every task struct), so the read itself slows down
  as the node gets busier — one of the mechanisms behind the paper's
  Fig 3 linear latency growth.

``read_stat`` is a composite syscall: a generator to be driven with
``yield from`` inside a task body. The statistics snapshot is taken when
the kernel work *completes*, not when the call was issued.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node
    from repro.kernel.task import TaskContext


class ProcFs:
    """Per-node /proc interface."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        #: number of /proc stat reads served (diagnostics)
        self.reads = 0

    # ------------------------------------------------------------------
    def scan_cost(self) -> int:
        """CPU cost of assembling the statistics right now."""
        cfg = self.node.cfg.syscall
        return cfg.proc_read_base + cfg.proc_read_per_task * self.node.sched.nr_threads()

    def snapshot(self) -> tuple:
        """The statistics themselves (exact, instantaneous): the
        ``kern.load`` record of :mod:`repro.kernel.loadavg`."""
        return self.node.loadacct.snapshot()

    def read_stat(self, k: "TaskContext") -> Generator:
        """Composite syscall: read /proc system statistics.

        Usage inside a task body::

            stats = yield from node.procfs.read_stat(k)
        """
        cost = self.scan_cost()
        yield k.syscall(cost)
        # copy to user space
        yield k.compute(k.copy_cost(512), mode="sys")
        self.reads += 1
        return self.snapshot()
