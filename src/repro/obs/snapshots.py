"""File-backed exposition snapshots, one per monitoring epoch.

:class:`SnapshotWriter` renders a registry to ``<prefix>-<seq>.prom``
files — the "node exporter textfile collector" pattern: a scraper (or
a human with ``diff``) can replay the whole run epoch by epoch, and
two same-seed runs produce byte-identical snapshot sequences.

Writing happens on the wall clock only (inside an observer callback);
the simulation schedules nothing and simulated time is untouched.
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry


class SnapshotWriter:
    """Writes numbered ``.prom`` exposition snapshots to a directory."""

    def __init__(self, registry: "MetricsRegistry", directory,
                 prefix: str = "metrics", every: int = 1) -> None:
        if every < 1:
            raise ValueError("snapshot cadence must be >= 1 epoch")
        self.registry = registry
        self.directory = pathlib.Path(directory)
        self.prefix = prefix
        self.every = every
        #: snapshot files written, in order
        self.paths: List[pathlib.Path] = []
        # manual write() numbering is 1-based, matching monitor epochs
        self._seq = 1

    def write(self, seq: Optional[int] = None) -> pathlib.Path:
        """Render the registry into the next (or given) numbered file."""
        if seq is None:
            seq = self._seq
        self._seq = seq + 1
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{self.prefix}-{seq:06d}.prom"
        path.write_text(self.registry.render())
        self.paths.append(path)
        return path

    def attach(self, monitor) -> "SnapshotWriter":
        """Snapshot every ``every``-th monitoring round.

        ``monitor`` is anything with a ``round_observers`` list — the
        flat :class:`~repro.monitoring.frontend.FrontendMonitor` or the
        federated root.
        """
        monitor.round_observers.append(self._on_round)
        return self

    def _on_round(self, epoch: int, latest) -> None:
        if epoch % self.every == 0:
            self.write(epoch)
