"""The helper kernel module of the paper's §5.1.3/§5.1.4.

The paper uses a small kernel module for two things:

1. exposing kernel-only structures (``irq_stat``, ``avenrun``,
   ``nr_threads``) to the *user-space* schemes, so they can report the
   same detailed information that RDMA-Sync reads directly; and
2. acting as the fine-grained **ground-truth** reporter in the accuracy
   experiment (Fig 5).

Reading through the module still requires the calling user process to be
scheduled and to trap into the kernel — which is precisely why the
user-space schemes observe drained interrupt queues (Fig 6) and stale
loads (Fig 5) on a busy node. The simulator's ground truth for Fig 5 is
taken by :mod:`repro.analysis.truth` directly from simulator state, which
is what the module's finer-granularity samples approximate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node
    from repro.kernel.task import TaskContext


class KernelModule:
    """ioctl-style access to kernel structures from user space."""

    #: fixed in-kernel cost of copying irq_stat / counters out
    IOCTL_COST = 4_000  # 4 us

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.reads = 0

    def read_irq_stat(self, k: "TaskContext") -> Generator:
        """Composite syscall returning the ``irq_stat`` record.

        The snapshot is taken when the kernel work completes — i.e. after
        the calling process has been scheduled and trapped in, by which
        time pending interrupt queues have normally drained.
        """
        yield k.syscall(self.IOCTL_COST)
        self.reads += 1
        return self.node.irq.irq_stat()

    def read_kernel_load(self, k: "TaskContext") -> Generator:
        """Composite syscall returning the ``kern.load`` record."""
        yield k.syscall(self.IOCTL_COST)
        self.reads += 1
        return self.node.loadacct.snapshot()
