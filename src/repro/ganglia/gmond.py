"""gmond — the Ganglia monitoring daemon.

One per node. Periodically collects the default metric set from /proc
(paying the real collection cost on its node, like the actual daemon)
and multicasts the values to the cluster channel; simultaneously listens
on the channel and folds every announcement into its local metric store
(Ganglia's listen/announce protocol — every gmond knows the whole
cluster).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ganglia.metrics import MetricRecord, MetricStore
from repro.kernel.loadavg import BUSY_CPUS, LOADAVG_1, NR_RUNNING, NR_THREADS
from repro.sim.units import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node
    from repro.transport.multicast import MulticastGroup


class Gmond:
    """The per-node Ganglia daemon."""

    #: announcement payload size on the wire
    ANNOUNCE_BYTES = 256

    def __init__(
        self,
        node: "Node",
        channel: "MulticastGroup",
        interval: int = 1 * SECOND,
        nice: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError("gmond interval must be positive")
        self.node = node
        self.channel = channel
        self.interval = interval
        self.store = MetricStore()
        self.announcements = 0
        self._stopped = False
        channel.subscribe(node)
        node.spawn(f"gmond:{node.name}", self._collector_body, nice=nice)
        node.spawn(f"gmond-rx:{node.name}", self._listener_body, nice=nice)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _collector_body(self, k):
        node = self.node
        while not self._stopped:
            stats = yield from node.procfs.read_stat(k)
            records = [
                MetricRecord(node.name, "load_one", stats[LOADAVG_1], k.now),
                MetricRecord(node.name, "proc_run", stats[NR_RUNNING], k.now),
                MetricRecord(node.name, "proc_total", stats[NR_THREADS], k.now),
                MetricRecord(node.name, "cpu_busy", stats[BUSY_CPUS], k.now),
            ]
            for record in records:
                self.store.update(record)
            self.announcements += 1
            yield from self.channel.publish(k, records, self.ANNOUNCE_BYTES)
            yield k.sleep(self.interval)

    def _listener_body(self, k):
        while not self._stopped:
            records = yield from self.channel.recv(k)
            for record in records:
                self.store.update(record)
