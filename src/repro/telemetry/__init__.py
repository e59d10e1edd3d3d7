"""Bounded metric plane over the monitoring front-end (beyond the paper).

The paper's front-end keeps only the freshest :class:`LoadInfo` per
back-end and hands every report to its observers. Long-horizon
deployments need the layer real monitoring planes add on top:
bounded retention with tiered downsampling, streaming aggregates,
anomaly detection, and an alert engine whose output the control
loops (load balancing, admission) can act on.

Everything here runs *on the front end only* and is driven purely by
observer callbacks — it consumes zero simulated time and zero back-end
CPU, preserving the paper's one-sided-RDMA property.

======================= =============================================
Module                  Responsibility
======================= =============================================
:mod:`~.ringstore`      fixed-capacity rings, raw → 10x → 100x tiers
:mod:`~.digest`         streaming quantiles (merge digest)
:mod:`~.anomaly`        EWMA + z-score detectors
:mod:`~.alerts`         declarative rules → timestamped alerts
:mod:`~.pipeline`       wires a FrontendMonitor into all of the above
:mod:`~.export`         deterministic JSONL + ASCII dashboard
======================= =============================================
"""

from repro.telemetry.alerts import (
    Alert,
    AlertEngine,
    AnomalyRule,
    FaultRule,
    HeartbeatRule,
    Severity,
    StalenessRule,
    ThresholdRule,
)
from repro.telemetry.anomaly import AnomalyEvent, EwmaDetector
from repro.telemetry.digest import QuantileDigest, StreamingDigest
from repro.telemetry.export import dashboard, to_jsonl, write_jsonl
from repro.telemetry.pipeline import TelemetryPipeline, default_rules
from repro.telemetry.ringstore import MetricRing, RingBuffer, RingStore

__all__ = [
    "Alert",
    "AlertEngine",
    "AnomalyEvent",
    "AnomalyRule",
    "EwmaDetector",
    "FaultRule",
    "HeartbeatRule",
    "MetricRing",
    "QuantileDigest",
    "RingBuffer",
    "RingStore",
    "Severity",
    "StalenessRule",
    "StreamingDigest",
    "TelemetryPipeline",
    "ThresholdRule",
    "dashboard",
    "default_rules",
    "to_jsonl",
    "write_jsonl",
]
