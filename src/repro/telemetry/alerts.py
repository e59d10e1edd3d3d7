"""Declarative alert rules over the telemetry stream.

Rules are small objects evaluated per (back-end, sample); each decides
whether its *condition* holds and the engine turns condition edges into
timestamped :class:`Alert` records with hysteresis:

* an alert is **raised** once, when the condition first holds;
* it stays **active** — no re-firing, no flapping — until the rule's
  clear condition holds;
* clearing appends a companion record with ``cleared=True``.

Four rule families cover the monitoring plane's needs:

=================== ==================================================
:class:`ThresholdRule`  metric crosses ``fire_above``; clears below
                        ``clear_below`` (the hysteresis band)
:class:`AnomalyRule`    an :class:`~repro.telemetry.anomaly.EwmaDetector`
                        per back-end flags a z-score excursion
:class:`StalenessRule`  delivered load information is older than a bound
:class:`HeartbeatRule`  heartbeat transitions (HUNG / DEAD) from
                        :class:`~repro.monitoring.heartbeat.HeartbeatMonitor`
=================== ==================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.anomaly import EwmaDetector


#: the engine keys every alert by one int: a back-end index (>= 0), a
#: shard rollup (-1 … -TENANT_BASE) or a tenant window (below that)
TENANT_BASE = 1000


def shard_alert_id(shard: int) -> int:
    """Alert id of shard ``shard``'s rollup alerts."""
    return -(shard + 1)


def tenant_alert_id(tenant: int) -> int:
    """Alert id of tenant ``tenant``'s offender alerts."""
    return -(TENANT_BASE + tenant + 1)


def alert_subject(alert_id: int) -> str:
    """What an alert id names: ``backend3``, ``shard0`` or ``tenant2``."""
    if alert_id >= 0:
        return f"backend{alert_id}"
    if alert_id >= -TENANT_BASE:
        return f"shard{-alert_id - 1}"
    return f"tenant{-alert_id - TENANT_BASE - 1}"


class Severity(enum.IntEnum):
    """Ordered so comparisons like ``sev >= Severity.WARNING`` work."""

    INFO = 0
    WARNING = 1
    CRITICAL = 2


@dataclass
class Alert:
    """One raised (or cleared) condition on one back-end, shard or
    tenant (``backend`` is its id; see :func:`alert_subject`)."""

    time: int
    rule: str
    backend: int
    severity: Severity
    metric: str
    value: float
    message: str
    cleared: bool = False

    def describe(self) -> str:
        state = "cleared" if self.cleared else self.severity.name
        return (f"[{state}] {alert_subject(self.backend)} {self.rule}: "
                f"{self.message}")


class Rule:
    """Base class: evaluates one sample for one back-end."""

    #: rules whose active alerts should make shedding policies react
    sheds: bool = False

    def __init__(self, name: str, severity: Severity = Severity.WARNING) -> None:
        self.name = name
        self.severity = severity

    def evaluate(self, backend: int, time: int, metrics: Dict[str, float]) -> Tuple[bool, str]:
        """Return (condition_holds, message)."""
        raise NotImplementedError

    def clears(self, backend: int, time: int, metrics: Dict[str, float]) -> bool:
        """Whether an active alert should clear (default: condition gone)."""
        holds, _ = self.evaluate(backend, time, metrics)
        return not holds


class ThresholdRule(Rule):
    """``metric >= fire_above`` raises; ``metric <= clear_below`` clears.

    The gap between the two bounds is the hysteresis band: a metric
    oscillating inside it neither re-raises nor clears.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        fire_above: float,
        clear_below: Optional[float] = None,
        severity: Severity = Severity.WARNING,
        sheds: bool = False,
    ) -> None:
        super().__init__(name, severity)
        self.metric = metric
        self.fire_above = fire_above
        self.clear_below = clear_below if clear_below is not None else fire_above
        if self.clear_below > self.fire_above:
            raise ValueError("clear_below must not exceed fire_above")
        self.sheds = sheds

    def evaluate(self, backend, time, metrics):
        value = metrics.get(self.metric)
        if value is None:
            return False, ""
        return value >= self.fire_above, (
            f"{self.metric}={value:.4g} >= {self.fire_above:.4g}")

    def clears(self, backend, time, metrics):
        value = metrics.get(self.metric)
        if value is None:
            return False
        return value <= self.clear_below


class AnomalyRule(Rule):
    """z-score excursions on one metric, one detector per back-end."""

    def __init__(
        self,
        name: str,
        metric: str,
        severity: Severity = Severity.WARNING,
        detector_factory: Optional[Callable[[], EwmaDetector]] = None,
        clear_after: int = 8,
    ) -> None:
        """``clear_after``: consecutive non-anomalous samples that clear
        an active anomaly alert."""
        super().__init__(name, severity)
        self.metric = metric
        self.detector_factory = detector_factory or EwmaDetector
        self.clear_after = clear_after
        self._detectors: Dict[int, EwmaDetector] = {}
        self._quiet: Dict[int, int] = {}

    def _detector(self, backend: int) -> EwmaDetector:
        det = self._detectors.get(backend)
        if det is None:
            det = self._detectors[backend] = self.detector_factory()
        return det

    def evaluate(self, backend, time, metrics):
        value = metrics.get(self.metric)
        if value is None:
            return False, ""
        event = self._detector(backend).update(time, value)
        if event is None:
            self._quiet[backend] = self._quiet.get(backend, 0) + 1
            return False, ""
        self._quiet[backend] = 0
        return True, f"{self.metric} {event.describe()}"

    def clears(self, backend, time, metrics):
        # evaluate() already ran this sample (engine evaluates first).
        return self._quiet.get(backend, 0) >= self.clear_after


class StalenessRule(Rule):
    """Load information delivered older than ``max_staleness`` ns."""

    def __init__(
        self,
        name: str,
        max_staleness: int,
        severity: Severity = Severity.WARNING,
        sheds: bool = False,
    ) -> None:
        super().__init__(name, severity)
        self.max_staleness = max_staleness
        self.sheds = sheds

    def evaluate(self, backend, time, metrics):
        staleness = metrics.get("staleness")
        if staleness is None:
            return False, ""
        return staleness > self.max_staleness, (
            f"report {staleness / 1e6:.1f} ms old > "
            f"{self.max_staleness / 1e6:.1f} ms bound")


class HeartbeatRule(Rule):
    """Raises on HUNG / DEAD heartbeat transitions, clears on ALIVE.

    Driven by :meth:`AlertEngine.observe_health`, not per-sample
    evaluation — heartbeat state is edge-triggered already.
    """

    def __init__(self, name: str = "heartbeat-miss",
                 severity: Severity = Severity.CRITICAL,
                 sheds: bool = True) -> None:
        super().__init__(name, severity)
        self.sheds = sheds

    def evaluate(self, backend, time, metrics):
        return False, ""  # never sample-driven


class FaultRule(Rule):
    """Mirrors injected faults from the fault plane as alerts.

    Driven by :meth:`AlertEngine.observe_fault` with
    :class:`~repro.faults.plane.FaultRecord` events: a fault targeting a
    specific back-end raises on apply and clears on revoke/recover.
    Cluster-wide faults (partitions, link mods between non-backends)
    carry ``backend == -1`` and are logged but never raised per-backend.
    """

    def __init__(self, name: str = "fault-injected",
                 severity: Severity = Severity.WARNING,
                 sheds: bool = False) -> None:
        super().__init__(name, severity)
        self.sheds = sheds

    def evaluate(self, backend, time, metrics):
        return False, ""  # never sample-driven


class AlertEngine:
    """Evaluates rules and owns the alert log + active set."""

    def __init__(self, rules: Optional[List[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules else []
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError("rule names must be unique")
        #: every raise/clear ever, in time order
        self.log: List[Alert] = []
        self._active: Dict[Tuple[str, int], Alert] = {}

    def add_rule(self, rule: Rule) -> None:
        if any(r.name == rule.name for r in self.rules):
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self.rules.append(rule)

    # ------------------------------------------------------------------
    def observe(self, backend: int, time: int, metrics: Dict[str, float]) -> List[Alert]:
        """Evaluate every sample-driven rule against one observation."""
        raised: List[Alert] = []
        for rule in self.rules:
            if isinstance(rule, (HeartbeatRule, FaultRule)):
                continue  # event-driven: observe_health / observe_fault only
            key = (rule.name, backend)
            # Always evaluate: stateful rules (anomaly detectors) must see
            # every sample even while their alert is active.
            holds, message = rule.evaluate(backend, time, metrics)
            active = self._active.get(key)
            if active is None:
                if holds:
                    alert = Alert(
                        time=time, rule=rule.name, backend=backend,
                        severity=rule.severity, metric=getattr(rule, "metric", ""),
                        value=metrics.get(getattr(rule, "metric", ""), 0.0),
                        message=message,
                    )
                    self._active[key] = alert
                    self.log.append(alert)
                    raised.append(alert)
            elif rule.clears(backend, time, metrics):
                self._clear(key, time)
        return raised

    def observe_health(self, record) -> Optional[Alert]:
        """Feed one heartbeat :class:`HealthRecord` transition."""
        from repro.monitoring.heartbeat import NodeHealth

        for rule in self.rules:
            if not isinstance(rule, HeartbeatRule):
                continue
            key = (rule.name, record.backend)
            if record.state is NodeHealth.ALIVE:
                if key in self._active:
                    self._clear(key, record.time)
                return None
            if key in self._active:
                return None  # already raised (e.g. HUNG escalating to DEAD)
            alert = Alert(
                time=record.time, rule=rule.name, backend=record.backend,
                severity=rule.severity, metric="heartbeat", value=0.0,
                message=f"node reported {record.state.value}",
            )
            self._active[key] = alert
            self.log.append(alert)
            return alert
        return None

    def observe_fault(self, record) -> Optional[Alert]:
        """Feed one fault-plane :class:`~repro.faults.plane.FaultRecord`.

        Applying a fault that targets a back-end raises the
        :class:`FaultRule` alert for it; revoking (or recovering) clears.
        """
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                continue
            if record.backend < 0:
                return None
            key = (rule.name, record.backend)
            if not record.active or record.kind == "recover":
                # Windowed fault revoked, or an explicit recover action
                # undoing a crash/hang: the condition is gone.
                if key in self._active:
                    self._clear(key, record.time)
                return None
            if key in self._active:
                return None  # one alert per backend while any fault holds
            alert = Alert(
                time=record.time, rule=rule.name, backend=record.backend,
                severity=rule.severity, metric="fault", value=0.0,
                message=f"{record.kind} on {record.target}",
            )
            self._active[key] = alert
            self.log.append(alert)
            return alert
        return None

    def _clear(self, key: Tuple[str, int], time: int) -> None:
        active = self._active.pop(key)
        self.log.append(Alert(
            time=time, rule=active.rule, backend=active.backend,
            severity=active.severity, metric=active.metric,
            value=active.value, message=active.message, cleared=True,
        ))

    # ------------------------------------------------------------------
    def active_alerts(self, min_severity: Severity = Severity.INFO) -> List[Alert]:
        return sorted(
            (a for a in self._active.values() if a.severity >= min_severity),
            key=lambda a: (a.time, a.rule, a.backend),
        )

    def is_active(self, rule_name: str, backend: int) -> bool:
        return (rule_name, backend) in self._active

    def shed_backends(self, min_severity: Severity = Severity.CRITICAL) -> List[int]:
        """Back-ends with an active alert from a ``sheds`` rule."""
        shedding_rules = {r.name for r in self.rules if r.sheds}
        return sorted({
            backend for (name, backend), alert in self._active.items()
            if name in shedding_rules and alert.severity >= min_severity
        })

    def counts_by_rule(self) -> Dict[str, int]:
        """Raised (non-cleared) alert counts per rule, for reporting."""
        counts: Dict[str, int] = {}
        for alert in self.log:
            if not alert.cleared:
                counts[alert.rule] = counts.get(alert.rule, 0) + 1
        return counts
