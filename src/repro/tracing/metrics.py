"""Span-derived metrics: the bridge from traces to the telemetry plane.

Every finished span is also a (time, duration) sample. :class:`SpanMetrics`
subscribes to a :class:`~repro.tracing.span.SpanTracer`'s end hook and
feeds

* a :class:`~repro.analysis.collector.TimeSeries` (series name
  ``span.<name>``, value = duration in ns) for windowed reductions,
* one :class:`~repro.telemetry.digest.StreamingDigest` per span name
  for streaming percentiles (p99 probe-span duration without retaining
  the stream), and
* optionally a :class:`~repro.telemetry.alerts.AlertEngine`: spans that
  carry a ``backend`` attribute are surfaced as metric samples, so a
  stock :class:`~repro.telemetry.alerts.ThresholdRule` on e.g.
  ``span.probe:rdma-sync`` fires when probe spans slow down.

Like the rest of the tracing plane this is observer-driven bookkeeping:
zero simulated-time cost, bounded memory (digests are O(compression),
the TimeSeries is optional and owned by the caller).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.telemetry.digest import StreamingDigest
from repro.tracing.span import Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.collector import TimeSeries
    from repro.telemetry.alerts import AlertEngine


class SpanMetrics:
    """Streams span durations into telemetry primitives."""

    def __init__(
        self,
        series: Optional["TimeSeries"] = None,
        engine: Optional["AlertEngine"] = None,
        compression: int = 256,
        prefix: str = "span.",
    ) -> None:
        self.series = series
        self.engine = engine
        self.compression = compression
        self.prefix = prefix
        self._digests: Dict[str, StreamingDigest] = {}
        self.observed = 0

    # ------------------------------------------------------------------
    def attach(self, tracer: SpanTracer) -> "SpanMetrics":
        tracer.observers.append(self.observe)
        return self

    def observe(self, span: Span) -> None:
        """End-hook body: one finished span becomes one metric sample."""
        if span.end is None:  # pragma: no cover - hooks only see finished spans
            return
        self.observed += 1
        key = self.prefix + span.name
        duration = float(span.duration)
        if self.series is not None:
            self.series.add(key, span.end, duration)
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = StreamingDigest(self.compression)
        digest.update(duration)
        if self.engine is not None:
            backend = span.attrs.get("backend")
            if isinstance(backend, int):
                self.engine.observe(backend, span.end, {key: duration})

    # ------------------------------------------------------------------
    def digest(self, name: str) -> Optional[StreamingDigest]:
        return self._digests.get(self.prefix + name)

    def quantile(self, name: str, q: float) -> float:
        """Streaming duration quantile for span ``name`` (0.0 if unseen)."""
        digest = self.digest(name)
        if digest is None or digest.count == 0:
            return 0.0
        return float(digest.quantile(q))

    def names(self):
        """Span names observed so far (without the series prefix)."""
        n = len(self.prefix)
        return sorted(key[n:] for key in self._digests)
