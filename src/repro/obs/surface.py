"""The deployed observability surface for one cluster.

:class:`Observability` is what ``ClusterBuilder.observability(...)``
hangs off the cluster handle: the registry wired to every present
plane, plus the optional consumers its keywords enable — a per-epoch
snapshot writer and/or a live ``/metrics`` HTTP endpoint. Everything is
observer-side; simulated time is untouched.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.httpd import MetricsServer
from repro.obs.jobreport import JobReport, build_job_report
from repro.obs.registry import DEFAULT_QUANTILES, MetricsRegistry
from repro.obs.snapshots import SnapshotWriter


class Observability:
    """Registry + optional snapshot writer + optional scrape endpoint."""

    def __init__(self, registry: MetricsRegistry, cluster=None) -> None:
        self.registry = registry
        self.cluster = cluster
        self.writer: Optional[SnapshotWriter] = None
        self.server: Optional[MetricsServer] = None

    # ------------------------------------------------------------------
    @classmethod
    def deploy(cls, cluster, *, namespace: str = "repro",
               quantiles: Sequence[float] = DEFAULT_QUANTILES,
               snapshot_dir: str = "", snapshot_every: int = 1,
               http: bool = False, http_host: str = "127.0.0.1",
               http_port: int = 0) -> "Observability":
        """Wire the surface onto a built cluster.

        ``namespace`` prefixes every family name and ``quantiles`` are
        the ones each summary exposes. A non-empty ``snapshot_dir``
        writes an exposition there every ``snapshot_every`` monitoring
        epochs; ``http=True`` serves a live ``/metrics`` endpoint on
        ``http_host:http_port`` (port 0 = ephemeral, wall-clock only).
        """
        registry = MetricsRegistry.from_cluster(
            cluster, namespace=namespace, quantiles=quantiles)
        obs = cls(registry, cluster=cluster)
        if snapshot_dir:
            obs.writer = SnapshotWriter(registry, snapshot_dir,
                                        every=snapshot_every)
            obs.writer.attach(cluster.monitor)
        if http:
            obs.server = MetricsServer(
                registry, host=http_host, port=http_port,
                report_provider=obs.job_report)
            obs.server.start()
        return obs

    # ------------------------------------------------------------------
    def exposition(self) -> str:
        """The OpenMetrics text of the current simulator state."""
        return self.registry.render()

    def snapshot(self):
        """Write one exposition snapshot now (needs ``snapshot_dir``)."""
        if self.writer is None:
            raise RuntimeError(
                "no snapshot writer: pass snapshot_dir=... to "
                "ClusterBuilder.observability")
        return self.writer.write()

    def job_report(self, job: str = "rubis", stats=None) -> JobReport:
        """Build the per-session job report for this cluster."""
        if self.cluster is None:
            raise RuntimeError("observability surface has no cluster handle")
        return build_job_report(self.cluster, job=job, stats=stats)

    def stop(self) -> None:
        """Shut down the scrape endpoint (if one was started)."""
        if self.server is not None:
            self.server.stop()
