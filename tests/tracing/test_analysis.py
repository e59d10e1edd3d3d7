"""Analysis tests: critical path, exclusive time, the analytic oracle.

The last test is the PR's calibration acceptance check: on an idle
cluster, the verb-level segment spans of one RDMA-Sync probe must sum
to the closed-form fabric+DMA model *exactly* — 0 ns of error — because
the spans are stamped at the same simulation instants the model adds up.
"""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.hw.node import KERN_LOAD_BYTES
from repro.monitoring import create_scheme
from repro.sim.units import ms
from repro.tracing.analysis import (
    SpanTree,
    analytic_rdma_read_ns,
    analytic_wire_ns,
    component_breakdown,
    critical_path,
    exclusive_times,
    flame,
    format_trace,
    name_breakdown,
    trace_summary,
    verb_segment_sum,
)
from repro.tracing.span import SpanTracer


class FakeEnv:
    def __init__(self):
        self.now = 0


def build_request_trace():
    """A hand-built request tree with a known critical path.

    request[0,100]
      dispatch[5,15]
      service[20,95]
        web[20,40]
        db[40,90]     <- determines service's end
      respond[95,100]
    """
    env = FakeEnv()
    tr = SpanTracer(env, enabled=True)
    root = tr.start_trace("request", node="client", component="client")
    tr.record("dispatch", root, 5, 15, node="fe", component="dispatcher")
    svc = tr.record("service", root, 20, 95, node="be", component="httpd")
    tr.record("web", svc, 20, 40, node="be", component="httpd")
    tr.record("db", svc, 40, 90, node="be", component="db")
    tr.record("respond", root, 95, 100, node="be", component="httpd")
    env.now = 100
    tr.end(root)
    return tr, root


def test_span_tree_walk_and_root():
    tr, root = build_request_trace()
    tree = SpanTree(tr.trace(root.trace_id))
    assert tree.root is root
    walked = [(s.name, d) for s, d in tree.walk()]
    assert walked == [("request", 0), ("dispatch", 1), ("service", 1),
                      ("web", 2), ("db", 2), ("respond", 1)]


def test_critical_path_follows_latest_children():
    tr, root = build_request_trace()
    path = critical_path(tr.trace(root.trace_id), root)
    # dispatch[5,15] fits before service's start once the walk has
    # rewound to service.start=20, so it joins the path; inside service
    # both db and web chain back-to-back.
    assert [s.name for s in path] == ["dispatch", "web", "db", "respond"]


def test_critical_path_skips_overlapped_siblings():
    env = FakeEnv()
    tr = SpanTracer(env, enabled=True)
    root = tr.start_trace("probe")
    # Two reads posted in parallel; only the slower one is on the path.
    tr.record("read.a", root, 0, 40)
    tr.record("read.b", root, 0, 90)
    env.now = 100
    tr.end(root)
    path = critical_path(tr.trace(root.trace_id), root)
    assert [s.name for s in path] == ["read.b"]


def test_exclusive_times_merge_overlapping_children():
    env = FakeEnv()
    tr = SpanTracer(env, enabled=True)
    root = tr.start_trace("r")
    a = tr.record("a", root, 10, 60)
    b = tr.record("b", root, 40, 80)   # overlaps a by 20
    env.now = 100
    tr.end(root)
    excl = exclusive_times(tr.trace(root.trace_id))
    # Children cover [10,80) = 70; root self time = 100 - 70.
    assert excl[root.span_id] == 30
    assert excl[a.span_id] == 50 and excl[b.span_id] == 40


def test_breakdowns_and_flame_render():
    tr, root = build_request_trace()
    spans = tr.trace(root.trace_id)
    by_comp = component_breakdown(spans)
    by_name = name_breakdown(spans)
    # Every ns of the root is attributed exactly once.
    assert sum(by_comp.values()) == root.duration
    assert sum(by_name.values()) == root.duration
    assert by_name["db"] == 50 and by_name["dispatch"] == 10
    art = flame(spans, by="component")
    assert "be/db" in art and "client/client" in art


def test_format_trace_marks_errors():
    env = FakeEnv()
    tr = SpanTracer(env, enabled=True)
    root = tr.start_trace("probe")
    tr.record("rdma.read", root, 0, 10, status="error")
    env.now = 10
    tr.end(root)
    text = format_trace(tr.trace(root.trace_id))
    assert "!error" in text


def test_trace_summary_and_percentiles():
    tr, root = build_request_trace()
    spans = tr.trace(root.trace_id)
    summary = trace_summary(spans)
    assert summary["root"] == "request" and summary["duration_ns"] == 100
    assert summary["critical_path_ns"] == sum(d for _, d in summary["critical_path"])


# ----------------------------------------------------------------------
# the calibration oracle (acceptance criterion: 0 ns error)
# ----------------------------------------------------------------------
def test_analytic_wire_model_matches_config():
    cfg = SimConfig(num_backends=2)
    net = cfg.net
    expected = (2 * max(1, -(-30 // net.link_bytes_per_ns))
                + 2 * net.hop_latency + net.switch_latency)
    assert analytic_wire_ns(cfg, 30) == expected


def test_idle_probe_critical_path_matches_analytic_model_exactly():
    """RDMA-Sync probe segments == closed-form model, to the nanosecond."""
    cfg = SimConfig(num_backends=2)
    cfg.tracing.enabled = True
    sim = build_cluster(cfg)
    scheme = create_scheme("rdma-sync", sim)
    results = []

    def body(k):
        info = yield from scheme.query(k, 0)
        results.append(info)

    sim.frontend.spawn("probe", body)
    sim.run(ms(5))
    assert results, "probe did not complete"

    probes = [s for s in sim.spans.roots() if s.name == "probe:rdma-sync"]
    assert len(probes) == 1
    tree = sim.spans.trace(probes[0].trace_id)
    path = critical_path(tree, probes[0])
    measured = verb_segment_sum(path, "read")
    analytic = analytic_rdma_read_ns(cfg, KERN_LOAD_BYTES)
    assert measured == analytic, (measured, analytic)
    # The verb parent span covers exactly the same window.
    (verb,) = [s for s in tree if s.name == "rdma.read"]
    assert verb.duration == analytic
    # All four segments present, contiguous, in causal order.
    segs = [s for s in tree if s.name.startswith("rdma.read.")]
    segs.sort(key=lambda s: s.start)
    assert [s.name.rsplit(".", 1)[1] for s in segs] == \
        ["post", "at_target", "dma", "completion"]
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start
