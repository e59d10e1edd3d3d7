"""End-to-end request tracing over the deployed RUBiS stack."""

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import MILLISECOND, ms
from repro.tracing.span import STATUS_ERROR
from repro.workloads.rubis import RubisWorkload


def traced_cluster(seed=1, sample_rate=1.0, with_admission=False,
                   with_tracing=True, num_backends=2):
    cfg = SimConfig(num_backends=num_backends, master_seed=seed)
    builder = ClusterBuilder(cfg).scheme("rdma-sync").workers(4)
    if with_admission:
        builder.with_admission()
    if with_tracing:
        builder.with_tracing(sample=sample_rate)
    app = builder.build()
    workload = RubisWorkload(app.sim, app.dispatcher, num_clients=8,
                             think_time=3 * MILLISECOND, burst_length=4)
    workload.start()
    return app


def test_request_trace_covers_the_whole_path():
    app = traced_cluster()
    app.run(ms(300))
    spans = app.sim.spans
    names = {s.name for s in spans.spans}
    # Client → dispatcher → balancer → backend (queue/service/web/db)
    # → response, plus monitoring probes with their verb segments.
    for expected in ("request", "dispatch", "lb.pick", "queue", "service",
                     "web", "db", "respond", "probe:rdma-sync",
                     "rdma.read", "rdma.read.dma"):
        assert expected in names, f"missing span {expected!r} in {sorted(names)}"


def test_trace_trees_are_connected():
    """Every non-root span's parent exists within the same trace."""
    app = traced_cluster()
    app.run(ms(300))
    spans = app.sim.spans
    assert spans.dropped == 0  # short run stays under the default bound
    rootless = 0
    for trace_id in spans.trace_ids():
        tree = spans.trace(trace_id)
        ids = {s.span_id for s in tree}
        roots = [s for s in tree if s.parent_id is None]
        assert len(roots) <= 1, f"trace {trace_id} has {len(roots)} roots"
        assert all(s.trace_id == trace_id for s in tree)
        if not roots:
            # A request in flight at the cutoff: its root (and maybe
            # intermediate spans) are still open, so only descendants
            # were committed. Counted and bounded below.
            rootless += 1
            continue
        for span in tree:
            if span.parent_id is not None:
                assert span.parent_id in ids, \
                    f"span {span.name} orphaned in trace {trace_id}"
    assert rootless <= spans.open_spans


def test_one_trace_per_request_and_per_probe():
    app = traced_cluster()
    app.run(ms(300))
    spans = app.sim.spans
    request_roots = [s for s in spans.roots() if s.name == "request"]
    probe_roots = [s for s in spans.roots() if s.name.startswith("probe:")]
    assert request_roots and probe_roots
    # rids are unique: no request was traced twice.
    rids = [s.attrs["rid"] for s in request_roots]
    assert len(rids) == len(set(rids))
    # Each finished request root was closed by the dispatcher with the
    # chosen backend attached.
    finished = [s for s in request_roots if s.finished]
    assert finished
    assert all("backend" in s.attrs for s in finished)


def test_rejected_request_root_ends_with_error_status():
    app = traced_cluster(with_admission=True)
    # Make admission reject readily: tiny score ceiling.
    app.admission.max_score = 0.01
    app.run(ms(400))
    spans = app.sim.spans
    rejected = [s for s in spans.roots()
                if s.name == "request" and s.status == STATUS_ERROR]
    assert rejected, "no rejected request traces recorded"
    dspans = [s for s in spans.by_name("dispatch")
              if s.attrs.get("rejected")]
    assert dspans and all(s.status == STATUS_ERROR for s in dspans)


def test_tracing_disabled_records_nothing():
    app = traced_cluster(with_tracing=False)
    app.run(ms(200))
    spans = app.sim.spans
    assert spans is not None and not spans.enabled
    assert len(spans) == 0 and spans.traces_started == 0


def test_sampling_counters_partition_the_roots():
    full = traced_cluster(seed=3, sample_rate=1.0)
    full.run(ms(400))
    sampled = traced_cluster(seed=3, sample_rate=0.2)
    sampled.run(ms(400))
    f, s = full.sim.spans, sampled.sim.spans
    assert s.unsampled > 0 and s.traces_started > 0
    # Sampling decides per root: kept + declined = all roots offered.
    assert s.traces_started + s.unsampled == f.traces_started + f.unsampled
    assert s.traces_started < f.traces_started
    assert len(s) < len(f)


def test_tracing_does_not_change_simulated_outcomes():
    """The acceptance property at unit scale: off == on, bit for bit."""
    def fingerprint(with_tracing):
        app = traced_cluster(seed=5, with_tracing=with_tracing)
        app.run(ms(400))
        stats = app.dispatcher.stats
        return {
            "forwarded": app.dispatcher.forwarded,
            "per_backend": dict(sorted(stats.per_backend_counts().items())),
            "completed": stats.count(),
            "total_response_ns": sum(stats.response_times()),
            "polls": app.monitor.polls,
        }

    assert fingerprint(False) == fingerprint(True)
