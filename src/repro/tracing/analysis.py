"""Causal analysis over span trees.

Answers the drill-down questions the metric plane cannot: *which
segment* of a slow request or monitoring probe actually consumed the
time. Three tools:

* :func:`critical_path` — the chain of leaf spans that determined the
  root's end time (waiting on anything off this path was free);
* :func:`exclusive_times` — per-span self time (duration minus child
  cover), aggregated into the per-component breakdown rendered by
  :func:`flame` as an ASCII flamegraph;
* :func:`analytic_rdma_read_ns` — the closed-form fabric+DMA latency of
  one RDMA read on an idle cluster, against which the verb-level
  segment spans must agree to the nanosecond (the calibration check in
  ``tests/tracing/test_analysis.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.analysis.ascii_chart import ascii_bars
from repro.tracing.span import Span


class SpanTree:
    """Parent/child index over the spans of one trace."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = [s for s in spans if s.finished]
        self.by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        self.children: Dict[Optional[int], List[Span]] = {}
        for span in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
            self.children.setdefault(span.parent_id, []).append(span)

    @property
    def root(self) -> Optional[Span]:
        roots = [s for s in self.spans
                 if s.parent_id is None or s.parent_id not in self.by_id]
        if not roots:
            return None
        return min(roots, key=lambda s: (s.start, s.span_id))

    def children_of(self, span: Span) -> List[Span]:
        return self.children.get(span.span_id, [])

    def walk(self, span: Optional[Span] = None, depth: int = 0):
        """Yield (span, depth) in pre-order from ``span`` (default root)."""
        span = span if span is not None else self.root
        if span is None:
            return
        yield span, depth
        for child in self.children_of(span):
            yield from self.walk(child, depth + 1)


def critical_path(spans: Sequence[Span], root: Optional[Span] = None) -> List[Span]:
    """The leaf spans that determined the root's completion time.

    Standard backwards walk: from a span's end, take the child that
    finishes last (but not after the span itself), jump to that child's
    start, and repeat among the remaining children; recurse into each
    chosen child. A span with no chosen children contributes itself as
    a path leaf. Returned in time order.
    """
    tree = SpanTree(spans)
    root = root if root is not None else tree.root
    if root is None:
        return []
    path: List[Span] = []

    def walk(span: Span) -> None:
        frontier = span.end
        assert frontier is not None
        chosen: List[Span] = []
        for child in sorted(tree.children_of(span),
                            key=lambda c: (c.end, c.span_id), reverse=True):
            if child.end is not None and child.end <= frontier:
                chosen.append(child)
                frontier = child.start
        if not chosen:
            path.append(span)
            return
        for child in reversed(chosen):
            walk(child)

    walk(root)
    return path


def exclusive_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time per span id: duration minus the union of child cover.

    Children may overlap each other (posted-in-parallel RDMA reads), so
    the child intervals are merged before subtracting.
    """
    tree = SpanTree(spans)
    out: Dict[int, int] = {}
    for span in tree.spans:
        intervals = sorted(
            (c.start, c.end) for c in tree.children_of(span) if c.end is not None
        )
        covered = 0
        cur_start: Optional[int] = None
        cur_end = 0
        for start, end in intervals:
            start = max(start, span.start)
            end = min(end, span.end if span.end is not None else end)
            if end <= start:
                continue
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                covered += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            covered += cur_end - cur_start
        out[span.span_id] = max(0, span.duration - covered)
    return out


def component_breakdown(spans: Sequence[Span]) -> Dict[str, int]:
    """Exclusive time aggregated by ``node/component`` lane."""
    excl = exclusive_times(spans)
    out: Dict[str, int] = {}
    for span in spans:
        if not span.finished:
            continue
        key = f"{span.node or '?'}/{span.component or 'main'}"
        out[key] = out.get(key, 0) + excl.get(span.span_id, 0)
    return out


def name_breakdown(spans: Sequence[Span]) -> Dict[str, int]:
    """Exclusive time aggregated by span name."""
    excl = exclusive_times(spans)
    out: Dict[str, int] = {}
    for span in spans:
        if span.finished:
            out[span.name] = out.get(span.name, 0) + excl.get(span.span_id, 0)
    return out


def flame(spans: Sequence[Span], by: str = "component", width: int = 48,
          title: str = "exclusive time") -> str:
    """ASCII flamegraph: exclusive-time bars, widest on top."""
    agg = component_breakdown(spans) if by == "component" else name_breakdown(spans)
    rows = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))
    return ascii_bars(
        [(label, ns / 1e3) for label, ns in rows],
        width=width, title=title, unit="us",
    )


def format_trace(spans: Sequence[Span]) -> str:
    """Indented one-trace timeline (the request-autopsy print form)."""
    tree = SpanTree(spans)
    root = tree.root
    if root is None:
        return "(empty trace)"
    lines = []
    for span, depth in tree.walk():
        rel = span.start - root.start
        flag = "" if span.status == "ok" else f"  !{span.status}"
        lines.append(
            f"{'  ' * depth}{span.name:<24.24s} +{rel / 1e3:>10.1f}us "
            f"{span.duration / 1e3:>10.1f}us  {span.node}/{span.component}{flag}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# analytic latency model (calibration oracle for the verb-level spans)
# ----------------------------------------------------------------------
def analytic_wire_ns(cfg, nbytes: int, bw_factor: float = 1.0) -> int:
    """One uncontended fabric transit: TX ser + hops + switch + RX ser."""
    net = cfg.net
    ser = max(1, math.ceil(nbytes / (net.link_bytes_per_ns * bw_factor)))
    return 2 * ser + 2 * net.hop_latency + net.switch_latency


def analytic_rdma_read_ns(cfg, nbytes: int) -> int:
    """Post→CQE latency of one RDMA read on an otherwise idle cluster.

    WQE fetch + request flight + target DMA + response flight + CQE —
    exactly the four verb-level span segments, so the critical path of
    an idle probe must sum to this figure with 0 ns error.
    """
    net = cfg.net
    dma = net.nic_dma_service + (nbytes * net.nic_dma_per_kb) // 1024
    return (
        net.nic_wqe_service
        + analytic_wire_ns(cfg, net.rdma_overhead_bytes)
        + dma
        + analytic_wire_ns(cfg, nbytes + net.rdma_overhead_bytes)
        + net.cqe_cost
    )


def verb_segment_sum(path: Sequence[Span], opcode: str = "read") -> int:
    """Total duration of the RDMA segment spans on a critical path."""
    prefix = f"rdma.{opcode}."
    return sum(s.duration for s in path if s.name.startswith(prefix))


def trace_summary(spans: Sequence[Span]) -> Dict[str, object]:
    """Compact stats for one trace (used by the autopsy example)."""
    tree = SpanTree(spans)
    root = tree.root
    if root is None:
        return {}
    path = critical_path(spans, root)
    return {
        "trace_id": root.trace_id,
        "root": root.name,
        "duration_ns": root.duration,
        "spans": len(tree.spans),
        "critical_path": [(s.name, s.duration) for s in path],
        "critical_path_ns": sum(s.duration for s in path),
    }

