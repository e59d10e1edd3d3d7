"""Admission control driven by monitored load (§1, §5.2.3).

The paper's motivating example: systems like Amazon "rely on the cluster
resource usage information for admission control of requests". The
controller admits a request when the monitor's view says capacity
remains; with coarse or stale monitoring it must either reject work the
cluster could have served or admit work that overloads it — both cost
admitted-request throughput (Fig 9's up-to-25 % claim).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.monitoring.loadinfo import LoadInfo


class AdmissionController:
    """Threshold admission over the monitor cache."""

    def __init__(
        self,
        num_backends: int,
        max_score: float = 0.85,
        balancer=None,
        alert_engine=None,
        shed_fraction: float = 0.5,
    ) -> None:
        """``max_score``: cluster-average score above which requests are
        rejected. ``balancer``: scoring delegate (LeastLoadedBalancer).

        ``alert_engine``: optional
        :class:`~repro.telemetry.alerts.AlertEngine` enabling alert-aware
        shedding — requests are also rejected while at least
        ``shed_fraction`` of the back-ends carry an active critical
        alert from a shedding rule (overload, heartbeat-miss). Unlike
        the mean-score test, this reacts to *trend* conditions the
        telemetry plane detects, not just the freshest sample."""
        self.num_backends = num_backends
        self.max_score = max_score
        self.balancer = balancer
        self.alert_engine = alert_engine
        if not 0.0 < shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1]")
        self.shed_fraction = shed_fraction
        self.admitted = 0
        self.rejected = 0
        #: rejections attributed to active alerts (subset of ``rejected``)
        self.shed_by_alert = 0
        #: span tracer + node label (wired by ClusterBuilder.build())
        self.tracer = None
        self.trace_node = ""

    def admit(self, loads: Dict[int, LoadInfo], ctx=None) -> bool:
        """Decide on one request given the current monitor cache."""
        decision = self._decide(loads)
        if ctx is not None and self.tracer is not None and self.tracer.enabled:
            # Point span: the decision consumes no simulated time itself
            # (the dispatcher charges DECISION_COST separately).
            now = self.tracer.now
            self.tracer.record("admission", ctx, now, now,
                               node=self.trace_node, component="admission",
                               attrs={"admitted": decision})
        return decision

    def _decide(self, loads: Dict[int, LoadInfo]) -> bool:
        if self.alert_engine is not None:
            shed = self.alert_engine.shed_backends()
            if len(shed) >= self.shed_fraction * self.num_backends:
                self.rejected += 1
                self.shed_by_alert += 1
                return False
        if self.balancer is None or not loads:
            self.admitted += 1
            return True
        scores = [
            self.balancer.score(info)
            for info in loads.values()
        ]
        mean_score = sum(scores) / len(scores) if scores else 0.0
        if mean_score > self.max_score:
            self.rejected += 1
            return False
        self.admitted += 1
        return True

    @property
    def rejection_rate(self) -> float:
        total = self.admitted + self.rejected
        return self.rejected / total if total else 0.0
