"""Wiring: FrontendMonitor observations → rings, digests, alerts.

:class:`TelemetryPipeline` is a passive observer. Attaching it to a
:class:`~repro.monitoring.frontend.FrontendMonitor` chains onto the
monitor's observer hook (preserving any experiment observer already
installed) so every delivered :class:`LoadInfo` is fanned out to

* the bounded :class:`~repro.telemetry.ringstore.RingStore`
  (per-back-end, per-metric rings, keyed ``b<i>.<metric>``),
* one :class:`~repro.telemetry.digest.StreamingDigest` per key, and
* the :class:`~repro.telemetry.alerts.AlertEngine`.

No simulated events are scheduled and no back-end work is induced: the
pipeline costs zero simulated time by construction, preserving the
paper's one-sided-RDMA non-perturbation property (verified by
``experiments/telemetry_overhead.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.alerts import (
    AlertEngine,
    AnomalyRule,
    FaultRule,
    HeartbeatRule,
    Rule,
    Severity,
    StalenessRule,
    ThresholdRule,
)
from repro.telemetry.digest import StreamingDigest
from repro.telemetry.ringstore import RingStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitoring.frontend import FrontendMonitor
    from repro.monitoring.heartbeat import HeartbeatMonitor
    from repro.monitoring.loadinfo import LoadInfo

#: LoadInfo fields tracked by default (staleness is derived)
DEFAULT_METRICS: Tuple[str, ...] = (
    "cpu_util",
    "runq_load",
    "nr_running",
    "irq_pressure",
    "mem_util",
    "net_rate_mbps",
    "staleness",
)


def default_rules(
    overload_above: float = 0.95,
    overload_clear: float = 0.80,
    max_staleness: int = 500_000_000,
) -> List[Rule]:
    """Stock rules: overload, run-queue anomaly, staleness, heartbeat, fault."""
    return [
        ThresholdRule(
            "overload", metric="cpu_util", fire_above=overload_above,
            clear_below=overload_clear, severity=Severity.CRITICAL, sheds=True,
        ),
        AnomalyRule("runq-anomaly", metric="runq_load", severity=Severity.WARNING),
        StalenessRule(
            "stale-loadinfo", max_staleness=max_staleness,
            severity=Severity.WARNING, sheds=False,
        ),
        HeartbeatRule(),
        FaultRule(),  # inert unless a FaultPlane is attach_faults()'d
    ]


class TelemetryPipeline:
    """The bounded metric plane for one front-end monitor."""

    def __init__(
        self,
        capacity: int = 1024,
        decimation: int = 10,
        compression: int = 1024,
        metrics: Sequence[str] = DEFAULT_METRICS,
        rules: Optional[List[Rule]] = None,
    ) -> None:
        self.metrics = tuple(metrics)
        self.store = RingStore(capacity=capacity, decimation=decimation)
        self.compression = compression
        self.engine = AlertEngine(rules if rules is not None else default_rules())
        self._digests: Dict[str, StreamingDigest] = {}
        self.observations = 0
        self._monitor: Optional["FrontendMonitor"] = None
        self._heartbeat: Optional["HeartbeatMonitor"] = None

    # ------------------------------------------------------------------
    def attach(self, monitor: "FrontendMonitor") -> "TelemetryPipeline":
        """Chain onto the monitor's observer hook (keeps any existing one)."""
        previous = monitor.observer

        def observer(backend: int, info: LoadInfo) -> None:
            if previous is not None:
                previous(backend, info)
            self.observe(backend, info)

        monitor.observer = observer
        self._monitor = monitor
        return self

    def attach_heartbeat(self, heartbeat: "HeartbeatMonitor") -> "TelemetryPipeline":
        """Surface heartbeat transitions as alerts (keeps any existing hook)."""
        previous = heartbeat.observer

        def observer(record) -> None:
            if previous is not None:
                previous(record)
            self.engine.observe_health(record)

        heartbeat.observer = observer
        self._heartbeat = heartbeat
        return self

    def attach_faults(self, plane) -> "TelemetryPipeline":
        """Surface injected faults as alerts (keeps any existing hook).

        ``plane`` is a :class:`~repro.faults.plane.FaultPlane`; requires a
        :class:`~repro.telemetry.alerts.FaultRule` in the engine's rule
        set to actually raise anything.
        """
        previous = plane.on_event

        def observer(record) -> None:
            if previous is not None:
                previous(record)
            self.engine.observe_fault(record)

        plane.on_event = observer
        return self

    def attach_federation(self, federation) -> "TelemetryPipeline":
        """Shard-level rollups + alerts from a federated root view.

        Chains onto the root monitor's ``round_observer`` (keeps any
        existing hook). Each merge round feeds per-shard aggregates —
        mean cpu_util / runq_load, max staleness, routable member count
        — into rings and digests keyed ``s<j>.<metric>``, and evaluates
        the sample-driven alert rules per shard. Shard alerts are keyed
        ``backend = -(shard + 1)``: negative ids keep them disjoint
        from per-back-end alerts and mean shedding policies (which
        match non-negative back-end indices) never act on them.
        """
        root = federation.root
        topology = federation.topology
        previous = root.round_observer

        def observer(epoch: int, latest) -> None:
            if previous is not None:
                previous(epoch, latest)
            self.observe_shards(topology, root, latest)

        root.round_observer = observer
        return self

    def attach_congestion(self, plane) -> "TelemetryPipeline":
        """Per-port congestion time series from a congestion plane.

        Chains onto the plane's ``on_event`` hook (keeps any existing
        one). Switch enqueues feed egress-queue depth and ECN mark-rate
        rings keyed ``sw<p>.depth`` / ``sw<p>.ecn_rate``; PFC pause
        frames feed ``sw<p>.pause_ns``; delivered CNPs feed the flow's
        post-cut rate under ``sw<p>.rate`` (``p`` is the victim port's
        index on the switch). Pure observation: no events scheduled, no
        simulated time spent.
        """
        previous = plane.on_event

        def observer(event: dict) -> None:
            if previous is not None:
                previous(event)
            self.observe_congestion(plane, event)

        plane.on_event = observer
        return self

    def attach_tenancy(self, plane) -> "TelemetryPipeline":
        """Per-tenant time series + offender alerts from a tenancy plane.

        Chains onto the plane's ``on_event`` hook (keeps any existing
        one). Each defense window feeds per-tenant attempted-rate rings
        keyed ``t<k>.<metric>`` and evaluates a ``tenant-offender``
        threshold rule. Tenant alerts are keyed ``backend =
        -(1000 + k + 1)``: negative ids keep them disjoint from
        per-back-end alerts (and the -1…-999 band shard rollups use),
        and shedding policies never act on them.
        """
        if not any(r.name == "tenant-offender" for r in self.engine.rules):
            self.engine.add_rule(ThresholdRule(
                "tenant-offender", metric="offending", fire_above=0.5,
                severity=Severity.WARNING, sheds=False))
        previous = plane.on_event

        def observer(event: dict) -> None:
            if previous is not None:
                previous(event)
            self.observe_tenancy(event)

        plane.on_event = observer
        return self

    def attach_scaler(self, scaler) -> "TelemetryPipeline":
        """Scaler telemetry: pool-load and active-count time series.

        Chains onto the scaler's ``observer`` hook (keeps any existing
        one). Every evaluation feeds ``scaler.mean_load`` and
        ``scaler.active`` rings/digests; scale moves additionally bump
        ``scaler.moves`` so the decision points are visible next to the
        load signal that triggered them.
        """
        previous = scaler.observer

        def observer(event: dict) -> None:
            if previous is not None:
                previous(event)
            self.observe_scaler(event)

        scaler.observer = observer
        return self

    def observe_scaler(self, event: dict) -> None:
        """Ingest one elastic-scaler event (evaluation or scale move)."""
        t = event["t"]
        if event.get("kind") == "scale":
            self.store.add("scaler.moves", t, 1.0)
            return
        sample = {
            "scaler.mean_load": float(event["mean_load"]),
            "scaler.active": float(event["active"]),
        }
        for key, value in sample.items():
            self.store.add(key, t, value)
            digest = self._digests.get(key)
            if digest is None:
                digest = self._digests[key] = StreamingDigest(self.compression)
            digest.update(value)

    def observe_tenancy(self, event: dict) -> None:
        """Ingest one tenancy-plane event (per-tenant window / action)."""
        if event.get("kind") != "tenant":
            return  # sanction actions carry no samples
        t = event["t"]
        tid = event["tenant"]
        sample = {
            "posted_mbps": float(event["posted_mbps"]),
            "qp_creates": float(event["qp_creates"]),
            "icm_misses": float(event["icm_misses"]),
            "denied": float(event["denied"]),
            "offending": float(event["offending"]),
        }
        for metric, value in sample.items():
            key = f"t{tid}.{metric}"
            self.store.add(key, t, value)
            digest = self._digests.get(key)
            if digest is None:
                digest = self._digests[key] = StreamingDigest(self.compression)
            digest.update(value)
        self.engine.observe(-(1000 + tid + 1), t, sample)

    def observe_congestion(self, plane, event: dict) -> None:
        """Ingest one congestion-plane event (enqueue / pause / cnp)."""
        kind = event["kind"]
        t = event["t"]
        if kind == "enqueue":
            samples = {f"sw{event['port']}.depth": float(event["depth"]),
                       f"sw{event['port']}.ecn_rate": float(event["mark_rate"])}
        elif kind == "pause":
            samples = {f"sw{event['port']}.pause_ns": float(event["pause_ns"])}
        elif kind == "cnp":
            port = plane.switch.port(event["dst"]).index
            samples = {f"sw{port}.rate": float(event["rate"])}
        else:  # pragma: no cover - future event kinds pass through
            return
        for key, value in samples.items():
            self.store.add(key, t, value)
            digest = self._digests.get(key)
            if digest is None:
                digest = self._digests[key] = StreamingDigest(self.compression)
            digest.update(value)

    def observe_shards(self, topology, root, latest) -> None:
        """Ingest one merged root round as per-shard aggregate samples."""
        now = root.sim.env.now
        for j in range(topology.num_shards):
            members = [g for g in topology.members(j) if g in latest]
            if not members:
                continue
            infos = [latest[g] for g in members]
            sample = {
                "cpu_util": sum(i.cpu_util for i in infos) / len(infos),
                "runq_load": sum(i.runq_load for i in infos) / len(infos),
                "staleness": float(max(i.staleness for i in infos)),
                "members": float(len(members)),
            }
            for metric, value in sample.items():
                key = f"s{j}.{metric}"
                self.store.add(key, now, value)
                digest = self._digests.get(key)
                if digest is None:
                    digest = self._digests[key] = StreamingDigest(self.compression)
                digest.update(value)
            self.engine.observe(-(j + 1), now, sample)

    # ------------------------------------------------------------------
    def observe(self, backend: int, info: LoadInfo) -> None:
        """Ingest one delivered load report (the observer body)."""
        self.observations += 1
        now = info.received_at
        sample: Dict[str, float] = {}
        for metric in self.metrics:
            value = float(getattr(info, metric))
            sample[metric] = value
            key = f"b{backend}.{metric}"
            self.store.add(key, now, value)
            digest = self._digests.get(key)
            if digest is None:
                digest = self._digests[key] = StreamingDigest(self.compression)
            digest.update(value)
        self.engine.observe(backend, now, sample)

    # ------------------------------------------------------------------
    def digest(self, backend: int, metric: str) -> Optional[StreamingDigest]:
        return self._digests.get(f"b{backend}.{metric}")

    def digests(self) -> Dict[str, StreamingDigest]:
        """All digests, keyed ``b<i>.<metric>``."""
        return dict(self._digests)

    def backends(self) -> List[int]:
        """Back-end indices observed so far."""
        seen = set()
        for key in self._digests:
            prefix, _, _ = key.partition(".")
            if prefix.startswith("b"):  # shard rollups use s<j>.<metric>
                seen.add(int(prefix[1:]))
        return sorted(seen)

    def memory_bound(self) -> int:
        """Upper bound on retained samples: 3 tiers x capacity x rings."""
        return 3 * self.store.capacity * max(1, len(self.store))

    # Convenience re-exports -------------------------------------------
    def dashboard(self, sparkline_width: int = 48) -> str:
        from repro.telemetry.export import dashboard

        return dashboard(self, sparkline_width=sparkline_width)

    def to_jsonl(self) -> str:
        from repro.telemetry.export import to_jsonl

        return to_jsonl(self)
