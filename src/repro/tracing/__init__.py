"""repro.tracing — causal span tracing for the simulated cluster.

The span plane records *why something took as long as it did*: every
request and monitoring probe becomes a tree of timed spans with one
trace id, exportable to Perfetto and analysable for its critical path.
Finished spans are also handed, in order, to the tracer's ``observers``
list. See docs/TRACING.md.
"""

from repro.tracing.analysis import (
    SpanTree,
    analytic_rdma_read_ns,
    component_breakdown,
    critical_path,
    exclusive_times,
    flame,
    format_trace,
    name_breakdown,
    trace_summary,
)
from repro.tracing.context import TraceContext, ctx_of
from repro.tracing.export import (
    chrome_trace_json,
    save_chrome_trace,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.tracing.span import Span, SpanTracer, tracer_for

__all__ = [
    "Span",
    "SpanTracer",
    "SpanTree",
    "TraceContext",
    "analytic_rdma_read_ns",
    "chrome_trace_json",
    "component_breakdown",
    "critical_path",
    "ctx_of",
    "exclusive_times",
    "flame",
    "format_trace",
    "name_breakdown",
    "save_chrome_trace",
    "to_chrome_trace",
    "to_jsonl",
    "trace_summary",
    "tracer_for",
    "validate_chrome_trace",
]
