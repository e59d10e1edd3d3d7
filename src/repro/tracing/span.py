"""Spans and the bounded span store.

A :class:`Span` is one named, timestamped segment of causal work —
"this RDMA read's target-side DMA", "request #4812 queued at backend2"
— linked to its parent by ids so a whole request or monitoring probe
forms a tree. The :class:`SpanTracer` owns id allocation, the
head-based sampling decision, and a **bounded** finished-span store
with drop counters, so tracing a long run can never grow without
limit.

Design constraints (why this looks the way it does):

* **Zero simulated-time cost.** Starting/ending spans is pure Python
  bookkeeping in the instrumented call sites: no events are scheduled,
  no task CPU is charged. Enabling tracing therefore cannot perturb
  any simulated outcome — the same property the telemetry plane keeps
  (docs/TELEMETRY.md) and the experiments verify bit-for-bit
  (``experiments/trace_overhead.py``).
* **Determinism.** Ids are sequential counters (not random), times are
  simulation nanoseconds, and the sampling RNG is a dedicated named
  stream from :class:`~repro.sim.rng.RngRegistry` — so two runs with
  the same seed produce byte-identical exports.
* **Cheap disabled path.** Every instrumentation hook guards on
  ``tracer.enabled`` (or on a ``None`` context) before doing anything;
  a disabled tracer costs one attribute read and one branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.tracing.context import TraceContext, ctx_of

#: terminal span statuses
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(slots=True)
class Span:
    """One timed segment of causal work.

    Slotted: traced runs allocate one Span per probe hop, so the
    per-instance dict is pure overhead.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    #: start time, sim-ns
    start: int
    #: end time, sim-ns (None while the span is open)
    end: Optional[int] = None
    #: node the work ran on (exported as the Perfetto *pid* dimension)
    node: str = ""
    #: component within the node (exported as the *tid* dimension)
    component: str = ""
    status: str = STATUS_OK
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        """Span duration in ns (0 while still open)."""
        return 0 if self.end is None else self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def context(self) -> TraceContext:
        """The context for parenting children under this span."""
        return TraceContext(self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = self.end if self.end is not None else "…"
        return (f"<Span {self.name} #{self.span_id} trace={self.trace_id} "
                f"[{self.start}, {end}) {self.node}/{self.component}>")


class SpanTracer:
    """Sampling span recorder with a bounded finished-span store.

    Parameters
    ----------
    env:
        The simulation :class:`~repro.sim.engine.Environment`; supplies
        default timestamps so call sites can omit them.
    rng:
        Sampling stream (``sim.rng.stream("tracing")``). Only consulted
        when ``sample_rate < 1``, and never shared with any simulated
        component, so sampling cannot perturb workload draws.
    sample_rate:
        Head-based probability that :meth:`start_trace` admits a new
        trace. The decision is made once at the root; descendants
        inherit it for free because an unsampled root has no context.
    max_spans:
        Finished-span retention bound. Once full, further finished
        spans are counted in :attr:`dropped` and discarded (newest
        dropped — the store keeps the run's *earliest* spans, which is
        what post-mortem analysis of a long run usually wants).
    """

    def __init__(
        self,
        env,
        rng=None,
        sample_rate: float = 1.0,
        max_spans: int = 65536,
        enabled: bool = False,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.env = env
        self.rng = rng
        self.sample_rate = sample_rate
        self.max_spans = max_spans
        self.enabled = enabled
        #: finished spans, in end-time order (bounded)
        self.spans: List[Span] = []
        #: finished spans discarded by the bound
        self.dropped = 0
        #: root traces declined by the sampler
        self.unsampled = 0
        #: traces admitted by the sampler
        self.traces_started = 0
        self._next_trace = 1
        self._next_span = 1
        self._open = 0
        #: called in order with every finished span (even ones the bound
        #: drops) — the hook feeding span-derived telemetry metrics
        self.observers: List[Callable[[Span], None]] = []

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.env.now

    @property
    def open_spans(self) -> int:
        """Spans started but not yet ended (diagnostics)."""
        return self._open

    # ------------------------------------------------------------------
    def start_trace(
        self,
        name: str,
        node: str = "",
        component: str = "",
        start: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Open a new root span, applying the head sampling decision.

        Returns None when disabled or when the sampler declines — the
        caller just threads the None through and all descendant hooks
        no-op.
        """
        if not self.enabled:
            return None
        if self.sample_rate <= 0.0:
            self.unsampled += 1
            return None
        if self.sample_rate < 1.0:
            if self.rng is None or self.rng.random() >= self.sample_rate:
                self.unsampled += 1
                return None
        trace_id = self._next_trace
        self._next_trace += 1
        self.traces_started += 1
        return self._open_span(trace_id, None, name, node, component, start, attrs)

    def start_span(
        self,
        name: str,
        parent,
        node: str = "",
        component: str = "",
        start: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Open a child span under ``parent`` (a Span, context, or None).

        A None parent means the trace was not sampled: returns None.
        """
        if not self.enabled:
            return None
        ctx = ctx_of(parent)
        if ctx is None:
            return None
        return self._open_span(ctx.trace_id, ctx.span_id, name, node, component,
                               start, attrs)

    def end(
        self,
        span: Optional[Span],
        end: Optional[int] = None,
        status: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Finish ``span`` (no-op on None) and commit it to the store."""
        if span is None:
            return
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already ended")
        span.end = self.env.now if end is None else int(end)
        if span.end < span.start:
            raise ValueError(
                f"span {span.name!r} would end before it starts "
                f"({span.end} < {span.start})"
            )
        if status is not None:
            span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._open -= 1
        self._commit(span)

    def record(
        self,
        name: str,
        parent,
        start: int,
        end: int,
        node: str = "",
        component: str = "",
        status: str = STATUS_OK,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Create an already-finished span from known timestamps.

        The retroactive form used where both boundaries are data the
        caller holds anyway (e.g. a back-end queue span from
        ``dispatched_at`` to service start).
        """
        if not self.enabled:
            return None
        ctx = ctx_of(parent)
        if ctx is None:
            return None
        span = self._open_span(ctx.trace_id, ctx.span_id, name, node, component,
                               start, attrs)
        self._open -= 1
        span.end = int(end)
        if span.end < span.start:
            raise ValueError(
                f"span {name!r} would end before it starts ({end} < {start})"
            )
        span.status = status
        self._commit(span)
        return span

    # ------------------------------------------------------------------
    def _open_span(self, trace_id, parent_id, name, node, component, start, attrs) -> Span:
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            name=name,
            start=self.env.now if start is None else int(start),
            node=node,
            component=component,
            attrs=dict(attrs) if attrs else {},
        )
        self._next_span += 1
        self._open += 1
        return span

    def _commit(self, span: Span) -> None:
        for fn in self.observers:
            fn(span)
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # -- queries -------------------------------------------------------
    def trace(self, trace_id: int) -> List[Span]:
        """All retained spans of one trace."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self) -> List[int]:
        """Distinct trace ids, in first-commit order."""
        seen: Dict[int, None] = {}
        for s in self.spans:
            seen.setdefault(s.trace_id, None)
        return list(seen)

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def by_component(self, component: str) -> List[Span]:
        """Retained spans of one component (e.g. ``"federation"``)."""
        return [s for s in self.spans if s.component == component]

    def roots(self) -> List[Span]:
        """Retained root spans (one per fully-retained trace)."""
        return [s for s in self.spans if s.parent_id is None]

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SpanTracer enabled={self.enabled} spans={len(self.spans)} "
                f"dropped={self.dropped} open={self._open}>")


def tracer_for(node, ctx) -> Optional[SpanTracer]:
    """The node's span tracer iff tracing is on and ``ctx`` is sampled.

    The one-line guard every transport hook uses: returns None (and
    costs two attribute reads) whenever tracing is off or the work at
    hand belongs to an unsampled trace.
    """
    if ctx is None:
        return None
    tracer = getattr(node, "span_tracer", None)
    if tracer is None or not tracer.enabled:
        return None
    return tracer


def spans_in_order(spans: Iterable[Span]) -> List[Span]:
    """Spans sorted by (start, span_id) — the canonical export order."""
    return sorted(spans, key=lambda s: (s.start, s.span_id))
