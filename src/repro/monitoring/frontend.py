"""Front-end polling loop.

Wraps a deployed scheme in the periodic poll the paper's front-end
monitoring process runs: every ``interval`` it performs a batched
``query_all`` and caches the latest LoadInfo per back-end for the load
balancer / admission controller to consult synchronously. Also records
(time, info) history and hands every report to the ``observers`` list
(telemetry, and the accuracy experiments comparing reports against
instantaneous truth).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

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
        history_limit: Optional[int] = None,
    ) -> None:
        """``history_limit``: retain only the newest N history entries
        (0 = unbounded). Defaults to ``cfg.monitor.history_limit`` so a
        single config knob bounds every monitor in a deployment. Long
        runs should bound history here and keep full-horizon statistics
        in a :class:`~repro.telemetry.pipeline.TelemetryPipeline`."""
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
        if history_limit is None:
            history_limit = getattr(self.sim.cfg.monitor, "history_limit", 0)
        if history_limit < 0:
            raise ValueError("history_limit must be >= 0 (0 = unbounded)")
        self.history_limit = history_limit
        #: freshest report per back-end index
        self.latest: Dict[int, LoadInfo] = {}
        #: history [(backend, info)] in arrival order; when bounded, a
        #: plain list trimmed in chunks (slicing stays O(1) amortised and
        #: existing ``history[n:]`` access patterns keep working)
        self.history: List[Tuple[int, LoadInfo]] = []
        #: history entries discarded by the bound (0 when unbounded)
        self.history_dropped = 0
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
        """Cache + history + observer fan-out for one delivered report."""
        self.latest[i] = info
        self.history.append((i, info))
        limit = self.history_limit
        if limit and len(self.history) >= 2 * limit:
            # Chunked trim: let the list grow to 2x then slice back to the
            # bound — amortised O(1) per record, unlike per-append del.
            self.history_dropped += len(self.history) - limit
            self.history = self.history[-limit:]
        for fn in self.observers:
            fn(i, info)

    # ------------------------------------------------------------------
    def load_of(self, backend_index: int) -> Optional[LoadInfo]:
        """Freshest cached report for one back-end (None before first poll)."""
        return self.latest.get(backend_index)

    def snapshot(self) -> Dict[int, LoadInfo]:
        """Copy of the current cache."""
        return dict(self.latest)
