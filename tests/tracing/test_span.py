"""Unit tests for the span store: sampling, bounds, parenting, guards."""

import pytest

from repro.tracing.context import TraceContext, ctx_of
from repro.tracing.span import (
    STATUS_ERROR,
    STATUS_OK,
    SpanTracer,
    spans_in_order,
    tracer_for,
)


class FakeEnv:
    """Just a clock — SpanTracer only reads ``env.now``."""

    def __init__(self):
        self.now = 0


class FixedRng:
    """Deterministic sampler feed."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.values.pop(0)


def make_tracer(**kw):
    env = FakeEnv()
    kw.setdefault("enabled", True)
    return env, SpanTracer(env, **kw)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_start_end_records_span():
    env, tr = make_tracer()
    root = tr.start_trace("request", node="client0", component="client")
    assert root is not None and root.parent_id is None
    assert tr.open_spans == 1 and len(tr) == 0  # not committed until ended
    env.now = 500
    tr.end(root, attrs={"backend": 2})
    assert tr.open_spans == 0 and len(tr) == 1
    assert root.duration == 500 and root.finished
    assert root.attrs["backend"] == 2
    assert root.status == STATUS_OK


def test_child_spans_share_the_trace():
    env, tr = make_tracer()
    root = tr.start_trace("request")
    child = tr.start_span("dispatch", root)
    grandchild = tr.start_span("lb.pick", child)
    assert child.trace_id == root.trace_id == grandchild.trace_id
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    env.now = 10
    for s in (grandchild, child, root):
        tr.end(s)
    assert {s.span_id for s in tr.trace(root.trace_id)} == \
        {root.span_id, child.span_id, grandchild.span_id}


def test_span_ids_are_sequential_and_traces_distinct():
    _, tr = make_tracer()
    a = tr.start_trace("a")
    b = tr.start_trace("b")
    assert b.trace_id == a.trace_id + 1
    assert b.span_id == a.span_id + 1
    assert tr.traces_started == 2


def test_record_retroactive_span():
    env, tr = make_tracer()
    env.now = 1000
    root = tr.start_trace("request")
    queued = tr.record("queue", root, 200, 900, node="backend0",
                       component="httpd", status=STATUS_ERROR,
                       attrs={"depth": 3})
    assert queued.start == 200 and queued.end == 900
    assert queued.status == STATUS_ERROR and queued.attrs["depth"] == 3
    assert tr.open_spans == 1  # only the root remains open


def test_double_end_raises():
    env, tr = make_tracer()
    span = tr.start_trace("x")
    tr.end(span)
    with pytest.raises(ValueError):
        tr.end(span)


def test_end_before_start_raises():
    env, tr = make_tracer()
    env.now = 100
    span = tr.start_trace("x")
    with pytest.raises(ValueError):
        tr.end(span, end=50)
    with pytest.raises(ValueError):
        tr.record("y", span, 100, 50)


def test_end_of_none_is_noop():
    _, tr = make_tracer()
    tr.end(None)  # must not raise: unsampled traces thread None through
    assert len(tr) == 0


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
def test_disabled_tracer_returns_none_everywhere():
    _, tr = make_tracer(enabled=False)
    assert tr.start_trace("x") is None
    assert tr.start_span("y", TraceContext(1, 1)) is None
    assert tr.record("z", TraceContext(1, 1), 0, 1) is None
    assert len(tr) == 0 and tr.unsampled == 0


def test_sample_rate_zero_declines_all():
    _, tr = make_tracer(sample_rate=0.0)
    assert tr.start_trace("x") is None
    assert tr.unsampled == 1 and tr.traces_started == 0


def test_head_sampling_uses_rng_once_per_root():
    rng = FixedRng([0.05, 0.95])
    _, tr = make_tracer(sample_rate=0.1, rng=rng)
    kept = tr.start_trace("kept")
    dropped = tr.start_trace("dropped")
    assert kept is not None and dropped is None
    assert rng.draws == 2
    assert tr.traces_started == 1 and tr.unsampled == 1
    # Descendants of a sampled root never consult the sampler.
    child = tr.start_span("c", kept)
    assert child is not None and rng.draws == 2


def test_unsampled_parent_short_circuits_children():
    _, tr = make_tracer(sample_rate=0.0)
    root = tr.start_trace("x")
    assert tr.start_span("child", root) is None
    assert tr.record("seg", root, 0, 1) is None
    assert tr.open_spans == 0


def test_full_rate_never_touches_rng():
    rng = FixedRng([])  # would raise if drawn from
    _, tr = make_tracer(sample_rate=1.0, rng=rng)
    assert tr.start_trace("x") is not None
    assert rng.draws == 0


# ----------------------------------------------------------------------
# bounded store
# ----------------------------------------------------------------------
def test_bound_drops_newest_and_counts():
    env, tr = make_tracer(max_spans=2)
    spans = [tr.start_trace(f"t{i}") for i in range(4)]
    env.now = 10
    for s in spans:
        tr.end(s)
    assert len(tr) == 2 and tr.dropped == 2
    # The earliest finished spans are the ones kept.
    assert [s.name for s in tr.spans] == ["t0", "t1"]


def test_on_end_hook_sees_dropped_spans_too():
    env, tr = make_tracer(max_spans=1)
    seen = []
    tr.observers.append(lambda s: seen.append(s.name))
    a, b = tr.start_trace("a"), tr.start_trace("b")
    env.now = 1
    tr.end(a)
    tr.end(b)
    assert seen == ["a", "b"] and tr.dropped == 1


def test_clear_resets_store_and_drop_counter():
    env, tr = make_tracer(max_spans=1)
    for name in ("a", "b"):
        span = tr.start_trace(name)
        env.now += 1
        tr.end(span)
    tr.clear()
    assert len(tr) == 0 and tr.dropped == 0


def test_constructor_validation():
    env = FakeEnv()
    with pytest.raises(ValueError):
        SpanTracer(env, sample_rate=1.5)
    with pytest.raises(ValueError):
        SpanTracer(env, max_spans=0)


# ----------------------------------------------------------------------
# queries + helpers
# ----------------------------------------------------------------------
def test_queries():
    env, tr = make_tracer()
    r1 = tr.start_trace("request")
    r2 = tr.start_trace("probe")
    c = tr.start_span("dispatch", r1)
    env.now = 5
    for s in (c, r2, r1):
        tr.end(s)
    assert [s.name for s in tr.roots()] == ["probe", "request"]
    # First-commit order: c (trace 1) committed before r2 (trace 2).
    assert tr.trace_ids() == [r1.trace_id, r2.trace_id]
    assert [s.name for s in tr.by_name("dispatch")] == ["dispatch"]
    assert tr.trace(r1.trace_id) == [c, r1]


def test_ctx_of_accepts_span_context_or_none():
    _, tr = make_tracer()
    span = tr.start_trace("x")
    assert ctx_of(None) is None
    assert ctx_of(span) == TraceContext(span.trace_id, span.span_id)
    ctx = TraceContext(7, 9)
    assert ctx_of(ctx) is ctx


def test_tracer_for_guard():
    class Node:
        span_tracer = None

    node = Node()
    ctx = TraceContext(1, 1)
    assert tracer_for(node, None) is None          # unsampled work
    assert tracer_for(node, ctx) is None           # no tracer on node
    _, tr = make_tracer(enabled=False)
    node.span_tracer = tr
    assert tracer_for(node, ctx) is None           # tracer disabled
    tr.enabled = True
    assert tracer_for(node, ctx) is tr


def test_spans_in_order_sorts_by_start_then_id():
    env, tr = make_tracer()
    root = tr.start_trace("r")
    late = tr.record("late", root, 50, 60)
    early = tr.record("early", root, 10, 20)
    tie = tr.record("tie", root, 10, 15)
    env.now = 100
    tr.end(root)
    ordered = spans_in_order(tr.spans)
    assert [s.name for s in ordered] == ["r", "early", "tie", "late"]
    assert ordered[1].span_id < ordered[2].span_id
