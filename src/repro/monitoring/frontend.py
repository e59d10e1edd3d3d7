"""Front-end polling loop.

Wraps a deployed scheme in the periodic poll the paper's front-end
monitoring process runs: every ``interval`` it performs a batched
``query_all`` and caches the latest LoadInfo per back-end for the load
balancer / admission controller to consult synchronously, and hands
every report to the ``observers`` list (telemetry, and the accuracy
experiments comparing reports against instantaneous truth). The cache
is the only state it keeps: a subscriber that wants a history records
it itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.monitoring.base import MonitoringScheme
from repro.monitoring.loadinfo import LoadInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Task


class FrontendMonitor:
    """Periodic poller + cache of the freshest load information."""

    def __init__(
        self,
        scheme: MonitoringScheme,
        interval: Optional[int] = None,
        name: str = "frontend-monitor",
    ) -> None:
        self.scheme = scheme
        self.sim = scheme.sim
        self.interval = interval if interval is not None else scheme.interval
        if self.interval <= 0:
            raise ValueError("poll interval must be positive")
        #: called in order with ``(backend, info)`` for each delivered report
        self.observers: List[Callable[[int, LoadInfo], None]] = []
        #: called in order with ``(epoch, infos)`` once per completed round
        self.round_observers: List[Callable[[int, Dict[int, LoadInfo]], None]] = []
        #: monotonic poll-round counter (stamps mergeable snapshots)
        self.epoch = 0
        self.name = name
        #: freshest report per back-end index
        self.latest: Dict[int, LoadInfo] = {}
        self.polls = 0
        self._stopped = False
        self._task: Optional["Task"] = None

    # ------------------------------------------------------------------
    def start(self) -> "Task":
        """Spawn the poll loop on the front-end node."""
        if self._task is not None:
            raise RuntimeError("monitor already started")
        self._task = self.scheme.frontend.spawn(self.name, self._body, nice=0)
        return self._task

    def stop(self) -> None:
        self._stopped = True

    def _body(self, k):
        while not self._stopped:
            infos = yield from self.scheme.query_all(k)
            self.polls += 1
            for i, info in infos.items():
                self._record(i, info)
            self.epoch += 1
            for fn in self.round_observers:
                fn(self.epoch, infos)
            yield k.sleep(self.interval)

    def _record(self, i: int, info: LoadInfo) -> None:
        """Cache + observer fan-out for one delivered report."""
        self.latest[i] = info
        for fn in self.observers:
            fn(i, info)
