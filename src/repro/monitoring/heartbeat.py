"""RDMA heartbeat: liveness detection as a monitoring by-product.

An extension of the paper's "enhanced robustness to load" argument (§4):
because an RDMA read of kernel memory needs neither the remote CPU nor
any remote software, it doubles as a *diagnostic* probe —

* a healthy node returns a snapshot whose timer-tick counter advances;
* a **hung** node (kernel livelock, scheduler stuck) still answers the
  DMA — with a frozen tick counter. A socket-based health check cannot
  tell this apart from overload; the RDMA probe positively identifies it;
* a **crashed** node answers nothing: the probe times out.

:class:`HeartbeatMonitor` probes every back-end's ``kern.load`` region
each interval and classifies nodes ALIVE / HUNG / DEAD.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.kernel.loadavg import TICKS
from repro.sim.events import AnyOf
from repro.transport.verbs import (
    AccessFlags,
    MemoryRegionHandle,
    ProtectionDomain,
    QueuePair,
    connect_monitor_qp,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim


class NodeHealth(enum.Enum):
    ALIVE = "alive"
    HUNG = "hung"
    DEAD = "dead"


@dataclass
class HealthRecord:
    """Health-state transition."""

    time: int
    backend: int
    state: NodeHealth


class HeartbeatMonitor:
    """One-sided liveness probing of every back-end."""

    def __init__(
        self,
        sim: "ClusterSim",
        interval: int = 50_000_000,  # 50 ms
        timeout: int = 10_000_000,  # 10 ms — far above a healthy RTT
        hung_after: int = 2,
    ) -> None:
        """``hung_after``: consecutive frozen-tick probes before HUNG."""
        if interval <= 0 or timeout <= 0:
            raise ValueError("interval and timeout must be positive")
        if hung_after < 1:
            raise ValueError("hung_after must be >= 1")
        self.sim = sim
        self.interval = interval
        self.timeout = timeout
        self.hung_after = hung_after
        #: called in order with each :class:`HealthRecord` transition
        #: (the telemetry alert engine and federation quarantine)
        self.observers: List[Callable[[HealthRecord], None]] = []
        self.state: Dict[int, NodeHealth] = {
            i: NodeHealth.ALIVE for i in range(len(sim.backends))
        }
        self.transitions: List[HealthRecord] = []
        self.probes = 0
        self._qps: List[QueuePair] = []
        self._mrs: List[MemoryRegionHandle] = []
        self._last_ticks: Dict[int, Optional[int]] = {}
        self._frozen_count: Dict[int, int] = {}
        self._stopped = False
        for be in sim.backends:
            pd = ProtectionDomain.for_node(be)
            self._mrs.append(pd.register(be.memory.get("kern.load"),
                                         AccessFlags.REMOTE_READ))
            qp, _ = connect_monitor_qp(sim.frontend, be)
            self._qps.append(qp)
            self._last_ticks[be.index - 1] = None
            self._frozen_count[be.index - 1] = 0
        sim.frontend.spawn("heartbeat", self._body)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _set_state(self, backend: int, state: NodeHealth, now: int) -> None:
        if self.state[backend] is state:
            return
        self.state[backend] = state
        record = HealthRecord(now, backend, state)
        self.transitions.append(record)
        for fn in self.observers:
            fn(record)

    def _body(self, k):
        env = self.sim.env
        while not self._stopped:
            for i, (qp, mr) in enumerate(zip(self._qps, self._mrs)):
                self.probes += 1
                wc_event = qp._post_read(mr.rkey, mr.nbytes)
                yield k.compute(self.sim.cfg.net.doorbell_cost)
                deadline = env.timeout(self.timeout)
                fired = yield k.wait(AnyOf(env, [wc_event, deadline]))
                if wc_event not in fired:
                    # No DMA response: the node is off the fabric.
                    self._set_state(i, NodeHealth.DEAD, k.now)
                    continue
                wc = wc_event.value
                if not wc.ok:
                    # NAK'd probe (injected verb fault): inconclusive —
                    # the HCA answered, so the node is on the fabric, but
                    # there is no snapshot to judge liveness by.
                    continue
                snapshot = wc.value
                ticks = self._extract_ticks(snapshot)
                last = self._last_ticks[i]
                self._last_ticks[i] = ticks
                if last is not None and ticks == last:
                    self._frozen_count[i] += 1
                    if self._frozen_count[i] >= self.hung_after:
                        self._set_state(i, NodeHealth.HUNG, k.now)
                else:
                    self._frozen_count[i] = 0
                    self._set_state(i, NodeHealth.ALIVE, k.now)
            yield k.sleep(self.interval)

    @staticmethod
    def _extract_ticks(snapshot: tuple) -> int:
        """The heartbeat counter: the kernel's timer-tick count.

        A hung kernel's timer stops; a healthy one ticks at 100 Hz, so
        at any probing interval ≥ one tick the counter always advances.
        """
        return snapshot[TICKS]

    # ------------------------------------------------------------------
    def healthy_backends(self) -> List[int]:
        return [i for i, s in self.state.items() if s is NodeHealth.ALIVE]

    def quarantined(self) -> List[int]:
        """Back-ends currently held out of dispatch (HUNG or DEAD)."""
        return [i for i, s in self.state.items() if s is not NodeHealth.ALIVE]
