"""Golden-fingerprint determinism proof for the hot-path overhaul.

The fingerprints below were captured from the PRE-overhaul core (tuple
heap, un-slotted events, scalar RNG draws, uncached probe paths) at
commit 7d81002, covering five representative stacks: closed-loop RUBiS
on socket-sync and rdma-sync, open-loop with admission control, a
traced + telemetered rdma-async run at 25 % sampling, and a federated
16-node cluster. Each tuple pins response statistics, per-backend
routing counts, the total processed-event count, raw probe latencies,
span boundaries and workload drop counts — any reordering of the event
queue, any perturbation of an RNG stream, or any change to simulated
costs shifts at least one component.

``GOLDEN_FEDERATION_3LEVEL`` was added later, captured on the linear-scan
balancer before its score cache replaced it. It pins the benchmark's
dispatch path: three-level federation and e-RDMA-Sync's irq-pressure
scoring, with per-shard pick counts.

``GOLDEN_VERBS`` and ``GOLDEN_VERBS_CONGESTION`` pin the wire schedule
of every one-sided verb path, captured on the per-post closure chains
before the work-request objects replaced them: read, write, fetch-add
and cmp-swap; every NAK kind; fault-plane NAKs; tenancy denial, rate
delay and context-cache misses; traced reads and writes with their
segment spans. The same script runs with the congestion plane off and
on. ``wr_id`` is left out on purpose: it only names a request.

``GOLDEN_BUILDER_MINIMAL``, ``GOLDEN_BUILDER_FULL_STACK`` and
``GOLDEN_BUILDER_FEDERATED`` were captured from ``ClusterBuilder``
before the keyword-flag ``deploy`` helper it had replaced was deleted;
until then, tests held the two fingerprint-identical. They pin a
minimal stack, every per-cluster plane the builder wires, and a
federated stack.

``GOLDEN_PLANE_KNOBS`` pins the knobs of the opt-in planes that the
builder hands to their constructors, captured while those knobs still
had copies in ``SimConfig``: an elastic scaler with every knob off its
default, with heartbeat failover and a renamed OpenMetrics surface
(hashed exposition); the scaler with default knobs; a trace replay with
default knobs and with every knob set; and a three-level federation
chained onto a default config. Its exposition hash was re-taken once,
when the ``monitor_history_dropped`` family went with the front-end
history it counted: the two expositions differ by exactly that
family's HELP, TYPE and sample lines.

The overhauled core must reproduce every value bit-for-bit. If a test
here fails, the change under review broke same-seed reproducibility —
do NOT re-capture the goldens to make it pass unless the change is an
intentional, documented break of the determinism contract.

Regenerating after an intentional break::

    PYTHONPATH=src python -m pytest tests/test_golden_fingerprints.py \
        --regen-goldens

rewrites every ``GOLDEN_*`` constant below in place with the freshly
captured fingerprints (each test reports ``skipped`` to mark that it
recaptured rather than asserted), then a plain re-run must pass. The
flag lives in ``tests/conftest.py``; commit the rewritten goldens
together with the change that moved them and a rationale in the
message. Never use it to silence an unexplained mismatch.
"""

import hashlib
import pathlib
import re

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.faults import FaultPlane, parse_schedule
from repro.hw.cluster import build_cluster
from repro.sim.units import ms, seconds
from repro.transport.verbs import AccessFlags, ProtectionDomain, connect_qp
from repro.workloads.openloop import OpenLoopWorkload
from repro.workloads.rubis import RubisWorkload
from repro.workloads.synth import synthesize_flash_crowd


def fp_rubis(scheme, seed=1234):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = ClusterBuilder(cfg).scheme(scheme, interval=ms(50)).build()
    lats = []
    app.scheme.observers.append(lambda r: lats.append(r.latency))
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    s = app.dispatcher.stats
    return (s.count(), repr(s.mean_response()), s.max_response(),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events,
            tuple(lats[:50]))


def fp_openloop(seed=77):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(50))
           .with_admission()
           .build())
    wl = OpenLoopWorkload(app.sim, app.dispatcher, rate_rps=400.0)
    wl.start()
    app.run(seconds(2))
    s = app.dispatcher.stats
    return (wl.issued, wl.dropped_inflight, s.count(), repr(s.mean_response()),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events)


def fp_traced(seed=42):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-async", interval=ms(50))
           .with_telemetry()
           .with_tracing(sample=0.25)
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=4, think_time=ms(10))
    wl.start()
    app.run(seconds(1))
    sp = app.sim.spans
    return (app.dispatcher.stats.count(), app.sim.env.processed_events,
            len(sp.spans), sp.traces_started, sp.unsampled,
            tuple((s.name, s.start, s.end) for s in sp.spans[:40]))


def fp_federation(seed=9):
    cfg = SimConfig(num_backends=16, master_seed=seed)
    cfg.federation.enabled = True
    app = ClusterBuilder(cfg).scheme("rdma-sync", interval=ms(50)).build()
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(10))
    wl.start()
    app.run(seconds(1))
    return (app.dispatcher.stats.count(), app.sim.env.processed_events,
            tuple(sorted(app.dispatcher.stats.per_backend_counts().items())))


def fp_federation_3level(seed=13):
    """The benchmark's dispatch path at small N: three-level federation,
    e-RDMA-Sync at 1 ms (irq pressure scored) and RUBiS, with enough
    load that dropping the irq term moves the picks."""
    cfg = SimConfig(num_backends=64, master_seed=seed)
    app = (ClusterBuilder(cfg)
           .scheme("e-rdma-sync", interval=ms(1))
           .with_federation(levels=3, leaf_interval=ms(1), root_interval=ms(1))
           .workload("rubis", num_clients=128, think_time=ms(1))
           .build())
    app.run(ms(100))
    s = app.dispatcher.stats
    return (s.count(), app.sim.env.processed_events,
            tuple(sorted(s.per_backend_counts().items())),
            tuple(app.balancer.shard_picks))


def fp_builder(app):
    """Closed-loop RUBiS for 1 s on a built cluster; a federated one
    has no flat scheme, so its probe tuple is empty."""
    lats = []
    if app.scheme is not None:
        app.scheme.observers.append(lambda r: lats.append(r.latency))
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(1))
    s = app.dispatcher.stats
    return (s.count(), repr(s.mean_response()), s.max_response(),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events,
            tuple(lats[:50]))


def build_minimal():
    return (ClusterBuilder(SimConfig(num_backends=2, master_seed=31))
            .scheme("rdma-sync", interval=ms(50))
            .build())


def build_full_stack():
    """Every per-cluster plane the builder wires: admission, telemetry,
    alert shedding, tracing, faults and heartbeat failover."""
    return (ClusterBuilder(SimConfig(num_backends=2, master_seed=32))
            .scheme("e-rdma-sync", interval=ms(20))
            .with_admission(max_score=0.9)
            .with_telemetry()
            .with_alert_shedding()
            .with_tracing(sample=0.5)
            .with_faults("at 300ms hang backend0\nat 600ms recover backend0\n")
            .with_heartbeat(interval=ms(20), timeout=ms(2))
            .build())


def build_federated():
    return (ClusterBuilder(SimConfig(num_backends=8, master_seed=33))
            .scheme("rdma-sync", interval=ms(50))
            .with_federation()
            .build())


def _stats_fp(app):
    s = app.dispatcher.stats
    return (s.count(), repr(s.mean_response()), s.max_response(),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events)


def fp_scaler(**knobs):
    """RUBiS on four back-ends under the elastic scaler for 1 s."""
    app = (ClusterBuilder(SimConfig(num_backends=4, master_seed=41))
           .scheme("rdma-sync", interval=ms(20))
           .with_elastic_scaler(**knobs)
           .workload("rubis", num_clients=16, think_time=ms(5))
           .build())
    published = []
    app.scaler.observers.append(published.append)
    app.run(seconds(1))
    evals = [e for e in published if e["kind"] == "eval"]
    events = tuple((e.time, e.direction, e.backend, repr(e.mean_load),
                    e.active_after) for e in app.scaler.events)
    return (_stats_fp(app), events, len(evals), evals[-1]["active"])


def fp_scaler_obs():
    """Every scaler knob off its default, plus heartbeat failover and a
    renamed OpenMetrics surface; the exposition is hashed."""
    app = (ClusterBuilder(SimConfig(num_backends=4, master_seed=42))
           .scheme("rdma-sync", interval=ms(20))
           .with_elastic_scaler(interval=ms(13), high_water=0.6,
                                low_water=0.1, initial_active=2,
                                min_active=2, max_active=3, up_after=2,
                                down_after=5, cooldown=ms(200))
           .with_heartbeat()
           .observability(namespace="acme", quantiles=(0.5, 0.9))
           .workload("rubis", num_clients=32, think_time=ms(2))
           .build())
    published = []
    app.scaler.observers.append(published.append)
    app.run(seconds(1))
    evals = [e for e in published if e["kind"] == "eval"]
    events = tuple((e.time, e.direction, e.backend, repr(e.mean_load),
                    e.active_after) for e in app.scaler.events)
    exposition = app.obs.exposition().encode()
    return (_stats_fp(app), events,
            tuple((e["t"], e["active"]) for e in evals[:8]),
            len(evals), app.heartbeat.probes,
            hashlib.sha256(exposition).hexdigest())


def fp_replay(**knobs):
    """A synthetic flash crowd replayed open-loop on two back-ends."""
    trace = synthesize_flash_crowd(seconds(1), 150.0)
    app = (ClusterBuilder(SimConfig(num_backends=2, master_seed=43))
           .scheme("rdma-sync")
           .workload("replay", trace=trace, **knobs)
           .build())
    app.run(seconds(2))
    replayer = app.workloads[0]
    return (_stats_fp(app), replayer.issued, replayer.completed_inline)


def fp_federation_chained():
    app = (ClusterBuilder(SimConfig(num_backends=16, master_seed=44))
           .scheme("rdma-sync", interval=ms(1))
           .with_federation(levels=3, leaf_interval=ms(1),
                            root_interval=ms(1))
           .workload("rubis", num_clients=16, think_time=ms(5))
           .build())
    app.run(ms(300))
    topo = app.federation.topology
    return (_stats_fp(app), topo.num_shards,
            tuple(tuple(s) for s in topo.assignment), app.federation.root.epoch)


def fp_plane_knobs():
    return (
        ("scaler+heartbeat+obs", fp_scaler_obs()),
        ("scaler-defaults", fp_scaler()),
        ("replay-defaults", fp_replay()),
        ("replay-knobs", fp_replay(time_scale=0.5, load_scale=1.5,
                                   injectors=4, drain_timeout=ms(77))),
        ("federation-3level", fp_federation_chained()),
    )


def _verb_mr(node, name, nbytes, value, access):
    region = node.memory.alloc(name, nbytes, value=value)
    return ProtectionDomain.for_node(node).register(region, access)


def _log_completions(events, log):
    for ev in events:
        ev.callbacks.append(lambda e: log.append(
            (e.value.opcode, e.value.status.value, e.value.completed_at,
             e.value.value, e.value.nbytes)))


def fp_verbs(congestion, seed=21):
    """Every one-sided verb path, on two small clusters.

    The first has tracing and a fault plane: a burst of successes and
    every NAK kind posted at once (so they queue on the DMA engines and
    links), a traced read, write and NAK, the task-level entry points,
    and a window of random fault-plane NAKs. The second has the tenancy
    plane: a rate-policed tenant, a quarantined one, and the system
    tenant walking more contexts than the NIC cache holds.
    """
    rd, wr, at = (AccessFlags.REMOTE_READ, AccessFlags.REMOTE_WRITE,
                  AccessFlags.REMOTE_ATOMIC)
    cfg = SimConfig(num_backends=2, master_seed=seed)
    cfg.congestion.enabled = congestion
    cfg.tracing.enabled = True
    sim = build_cluster(cfg)
    FaultPlane(sim, parse_schedule("from 2ms to 4ms verb-nak backend1 p=0.5")).install()
    fe, (be0, be1) = sim.frontend, sim.backends
    ro = _verb_mr(be0, "ro", 64, 7, rd)
    rw = _verb_mr(be0, "rw", 64, "x", rd | wr)
    ctr = _verb_mr(be0, "ctr", 8, 100, rd | at)
    txt = _verb_mr(be0, "txt", 8, "not-an-int", at)
    far = _verb_mr(be1, "far", 64, 3, rd | wr | at)
    qp, _ = connect_qp(fe, be0)
    qp1, _ = connect_qp(fe, be1)
    log = []
    _log_completions([
        qp._post_read(ro.rkey, 64),
        qp._post_write(rw.rkey, "y", 32),
        qp._post_atomic(ctr.rkey, "fetch-add", 5, None),
        qp._post_atomic(ctr.rkey, "cmp-swap", 999, 105),
        qp._post_atomic(ctr.rkey, "cmp-swap", 1, 0),
        qp._post_read(0xDEAD, 64),
        qp._post_write(0xDEAD, "z", 8),
        qp._post_atomic(0xDEAD, "fetch-add", 1, None),
        qp._post_write(ro.rkey, "z", 8),
        qp._post_read(txt.rkey, 8),
        qp._post_atomic(rw.rkey, "fetch-add", 1, None),
        qp._post_read(ro.rkey, 128),
        qp._post_write(rw.rkey, "big", 4096),
        qp._post_atomic(txt.rkey, "fetch-add", 1, None),
    ], log)
    root = sim.spans.start_trace("verbs", node=fe.name)
    _log_completions([qp._post_read(rw.rkey, 64, ctx=root),
                      qp._post_write(rw.rkey, "t", 16, ctx=root),
                      qp._post_read(0xDEAD, 8, ctx=root)], log)

    def body(k):
        for wc_gen in (qp.rdma_read(k, rw.rkey, 64),
                       qp.rdma_write(k, rw.rkey, "k", 64),
                       qp.fetch_add(k, ctr.rkey, 3),
                       qp.compare_swap(k, ctr.rkey, 1002, 0)):
            wc = yield from wc_gen
            log.append(("task", wc.opcode, wc.status.value, wc.completed_at,
                        wc.value, wc.nbytes))

    fe.spawn("verbs", body)
    sim.run(ms(3))
    _log_completions([qp1._post_read(far.rkey, 64) for _ in range(6)]
                     + [qp1._post_write(far.rkey, "f", 64) for _ in range(3)]
                     + [qp1._post_atomic(far.rkey, "fetch-add", 1, None)
                        for _ in range(3)], log)
    sim.run(ms(10))
    sim.spans.end(root)
    spans = tuple((s.name, s.start, s.end, s.status) for s in sim.spans.spans
                  if s.name.startswith("rdma."))
    plain = (tuple(log), sim.env.processed_events, spans,
             (rw.region.read(), ctr.region.read(), far.region.read()))

    cfg = SimConfig(num_backends=2, master_seed=seed)
    cfg.congestion.enabled = congestion
    cfg.tenancy.enabled = True
    cfg.tenancy.icm_entries = 4
    sim = build_cluster(cfg)
    tenancy = sim.tenancy
    slow = tenancy.create_tenant("slow", node=sim.clients, rate_bps=1_000_000)
    evil = tenancy.create_tenant("evil", node=sim.frontend)
    be0, be1 = sim.backends
    mrs = [_verb_mr(be0, f"m{i}", 1024, i, rd | wr | at) for i in range(6)]
    q_slow, _ = connect_qp(sim.clients, be0)
    q_evil, _ = connect_qp(sim.frontend, be0)
    q_sys, _ = connect_qp(be1, be0)
    evil.quarantined = True
    log = []
    _log_completions([
        q_slow._post_read(mrs[0].rkey, 1000),
        q_slow._post_write(mrs[1].rkey, "w", 1000),
        q_slow._post_atomic(mrs[2].rkey, "fetch-add", 1, None),
        q_slow._post_atomic(mrs[2].rkey, "cmp-swap", 7, 3),
        q_evil._post_read(mrs[0].rkey, 64),
        q_evil._post_write(mrs[1].rkey, "e", 64),
        q_evil._post_atomic(mrs[2].rkey, "fetch-add", 1, None),
        *(q_sys._post_read(m.rkey, 64) for m in mrs),
        q_sys._post_write(mrs[5].rkey, "s", 64),
        q_sys._post_atomic(mrs[4].rkey, "fetch-add", 2, None),
    ], log)
    sim.run(ms(10))
    tenanted = (tuple(log), sim.env.processed_events,
                (slow.posted_ops, evil.denied_ops,
                 tenancy.registry.system.icm_misses))
    return plain, tenanted


GOLDEN_SOCKET_SYNC = (1521, '2765277.1499013808', 26937012, ((0, 748), (1, 773)), 55365, (410128, 423628, 410128, 423628, 410128, 884311, 410128, 423628, 410128, 423628, 410128, 423628, 423628, 437128, 410128, 423628, 419969, 849142, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 782347, 786365, 410128, 423628, 410128, 429128, 410128, 1431400, 423628, 437128, 410128, 437128, 410128, 423628, 410128, 423628, 410128, 423628))

GOLDEN_RDMA_SYNC = (1428, '3080267.3928571427', 30860358, ((0, 714), (1, 714)), 51442, (20007, 25007) * 25)

GOLDEN_OPENLOOP = (839, 104, 734, '2241292.220708447', ((0, 397), (1, 337)), 33268)

GOLDEN_TRACED = (175, 8793, 342, 45, 170, (('lb.pick', 36629343, 36629343), ('dispatch', 36623193, 36642493), ('queue', 36629343, 36660157), ('web', 36666157, 38071132), ('db', 38071132, 40883583), ('respond', 40883583, 40897783), ('service', 36660157, 40897783), ('request', 36589379, 40941127), ('lb.pick', 70050012, 70050012), ('dispatch', 70043862, 70063162), ('queue', 70050012, 70080826), ('web', 70086826, 70658591), ('db', 70658591, 71135062), ('respond', 71135062, 71149262), ('service', 70080826, 71149262), ('request', 70010048, 71192606), ('lb.pick', 80690650, 80690650), ('dispatch', 80684500, 80703800), ('queue', 80690650, 80721464), ('web', 80727464, 81442074), ('db', 81442074, 82871295), ('respond', 82871295, 82885495), ('service', 80721464, 82885495), ('request', 80650686, 82928839), ('lb.pick', 89560416, 89560416), ('dispatch', 89554266, 89573566), ('queue', 89560416, 89591230), ('web', 89597230, 90179538), ('db', 90179538, 90662712), ('respond', 90662712, 90676912), ('service', 89591230, 90676912), ('request', 89520452, 90720256), ('rdma.read.post', 100040426, 100042926), ('rdma.read.at_target', 100042926, 100043686), ('rdma.read.post', 100041126, 100045426), ('rdma.read.at_target', 100045426, 100046186), ('rdma.read.dma', 100043686, 100046701), ('rdma.read.completion', 100046701, 100048089), ('rdma.read', 100040426, 100048089), ('rdma.read.dma', 100046186, 100049201)))

GOLDEN_FEDERATION_3LEVEL = (2632, 205446, ((0, 42), (1, 33), (2, 42), (3, 47), (4, 43), (5, 45), (6, 40), (7, 36), (8, 50), (9, 32), (10, 44), (11, 45), (12, 40), (13, 36), (14, 39), (15, 42), (16, 50), (17, 33), (18, 36), (19, 46), (20, 44), (21, 33), (22, 40), (23, 41), (24, 47), (25, 50), (26, 49), (27, 41), (28, 48), (29, 51), (30, 42), (31, 42), (32, 36), (33, 42), (34, 37), (35, 42), (36, 37), (37, 35), (38, 41), (39, 41), (40, 41), (41, 39), (42, 46), (43, 28), (44, 44), (45, 42), (46, 38), (47, 51), (48, 39), (49, 32), (50, 38), (51, 43), (52, 38), (53, 37), (54, 35), (55, 39), (56, 36), (57, 43), (58, 38), (59, 46), (60, 50), (61, 40), (62, 49), (63, 40)), (160, 167, 175, 160, 165, 157, 186, 185, 157, 158, 152, 179, 153, 149, 164, 178))

GOLDEN_VERBS = (((('read', 'invalid-rkey', 16520, None, 0), ('write', 'invalid-rkey', 19036, None, 0), ('write', 'remote-access-error', 24036, None, 0), ('read', 'remote-access-error', 26520, None, 0), ('read', 'length-error', 31520, None, 0), ('write', 'length-error', 42212, None, 0), ('read', 'invalid-rkey', 44020, None, 0), ('read', 'success', 45500, 7, 64), ('write', 'success', 46000, None, 32), ('fetch-add', 'success', 46500, 100, 8), ('cmp-swap', 'success', 47000, 105, 8), ('cmp-swap', 'success', 47500, 999, 8), ('fetch-add', 'invalid-rkey', 48000, None, 0), ('fetch-add', 'remote-access-error', 48500, None, 0), ('fetch-add', 'length-error', 49000, None, 0), ('read', 'success', 49500, 'y', 64), ('write', 'success', 51776, None, 16), ('task', 'read', 'success', 54919, 't', 64), ('task', 'write', 'success', 95375, None, 64), ('task', 'fetch-add', 'success', 106443, 999, 8), ('task', 'cmp-swap', 'success', 117511, 1002, 8), ('read', 'rnr-retry', 3009020, None, 0), ('read', 'rnr-retry', 3011520, None, 0), ('read', 'rnr-retry', 3016520, None, 0), ('write', 'rnr-retry', 3021648, None, 0), ('write', 'rnr-retry', 3024148, None, 0), ('read', 'success', 3030500, 3, 64), ('read', 'success', 3031000, 3, 64), ('read', 'success', 3031500, 3, 64), ('write', 'success', 3032000, None, 64), ('fetch-add', 'rnr-retry', 3032500, None, 0), ('fetch-add', 'rnr-retry', 3033000, None, 0), ('fetch-add', 'rnr-retry', 3033500, None, 0)), 239, (('rdma.read.post', 0, 37500, 'ok'), ('rdma.write.post', 0, 40000, 'ok'), ('rdma.read.at_target', 37500, 41528, 'ok'), ('rdma.write.at_target', 40000, 41574, 'ok'), ('rdma.read.post', 0, 42500, 'ok'), ('rdma.read.at_target', 42500, 43260, 'ok'), ('rdma.read.completion', 43260, 44020, 'error'), ('rdma.read', 0, 44020, 'error'), ('rdma.read.dma', 41528, 47513, 'ok'), ('rdma.read.completion', 47513, 49500, 'ok'), ('rdma.read', 0, 49500, 'ok'), ('rdma.write.dma', 41574, 50516, 'ok'), ('rdma.write.completion', 50516, 51776, 'ok'), ('rdma.write', 0, 51776, 'ok')), ('k', 0, 'f')), ((('read', 'tenant-denied', 1, None, 0), ('write', 'tenant-denied', 1, None, 0), ('fetch-add', 'tenant-denied', 1, None, 0), ('read', 'success', 15764, 0, 1000), ('read', 'success', 22500, 0, 64), ('read', 'success', 23922, 1, 64), ('read', 'success', 28937, 2, 64), ('read', 'success', 33952, 3, 64), ('read', 'success', 38967, 4, 64), ('read', 'success', 43982, 5, 64), ('write', 'success', 46869, None, 64), ('fetch-add', 'success', 49885, 4, 8), ('write', 'success', 1013764, None, 1000), ('fetch-add', 'success', 2011000, 2, 8), ('cmp-swap', 'success', 2015568, 3, 8)), 126, (4, 3, 7)))

GOLDEN_VERBS_CONGESTION = (((('read', 'invalid-rkey', 16520, None, 0), ('write', 'invalid-rkey', 19036, None, 0), ('write', 'remote-access-error', 24036, None, 0), ('read', 'remote-access-error', 26520, None, 0), ('read', 'length-error', 31520, None, 0), ('write', 'length-error', 42212, None, 0), ('read', 'invalid-rkey', 44020, None, 0), ('read', 'success', 45500, 7, 64), ('write', 'success', 46000, None, 32), ('fetch-add', 'success', 46500, 100, 8), ('cmp-swap', 'success', 47000, 105, 8), ('cmp-swap', 'success', 47500, 999, 8), ('fetch-add', 'invalid-rkey', 48000, None, 0), ('fetch-add', 'remote-access-error', 48500, None, 0), ('fetch-add', 'length-error', 49000, None, 0), ('read', 'success', 49500, 'y', 64), ('write', 'success', 51776, None, 16), ('task', 'read', 'success', 54919, 't', 64), ('task', 'write', 'success', 95375, None, 64), ('task', 'fetch-add', 'success', 106443, 999, 8), ('task', 'cmp-swap', 'success', 117511, 1002, 8), ('read', 'rnr-retry', 3009020, None, 0), ('read', 'rnr-retry', 3011520, None, 0), ('read', 'rnr-retry', 3016520, None, 0), ('write', 'rnr-retry', 3021648, None, 0), ('write', 'rnr-retry', 3024148, None, 0), ('read', 'success', 3030500, 3, 64), ('read', 'success', 3031000, 3, 64), ('read', 'success', 3031500, 3, 64), ('write', 'success', 3032000, None, 64), ('fetch-add', 'rnr-retry', 3032500, None, 0), ('fetch-add', 'rnr-retry', 3033000, None, 0), ('fetch-add', 'rnr-retry', 3033500, None, 0)), 371, (('rdma.read.post', 0, 37500, 'ok'), ('rdma.write.post', 0, 40000, 'ok'), ('rdma.read.at_target', 37500, 41528, 'ok'), ('rdma.write.at_target', 40000, 41574, 'ok'), ('rdma.read.post', 0, 42500, 'ok'), ('rdma.read.at_target', 42500, 43260, 'ok'), ('rdma.read.completion', 43260, 44020, 'error'), ('rdma.read', 0, 44020, 'error'), ('rdma.read.dma', 41528, 47513, 'ok'), ('rdma.read.completion', 47513, 49500, 'ok'), ('rdma.read', 0, 49500, 'ok'), ('rdma.write.dma', 41574, 50516, 'ok'), ('rdma.write.completion', 50516, 51776, 'ok'), ('rdma.write', 0, 51776, 'ok')), ('k', 0, 'f')), ((('read', 'tenant-denied', 1, None, 0), ('write', 'tenant-denied', 1, None, 0), ('fetch-add', 'tenant-denied', 1, None, 0), ('read', 'success', 15764, 0, 1000), ('read', 'success', 22500, 0, 64), ('read', 'success', 23922, 1, 64), ('read', 'success', 28937, 2, 64), ('read', 'success', 33952, 3, 64), ('read', 'success', 38967, 4, 64), ('read', 'success', 43982, 5, 64), ('write', 'success', 46869, None, 64), ('fetch-add', 'success', 49885, 4, 8), ('write', 'success', 1013764, None, 1000), ('fetch-add', 'success', 2011000, 2, 8), ('cmp-swap', 'success', 2015568, 3, 8)), 174, (4, 3, 7)))

GOLDEN_FEDERATION = (427, 26996, ((0, 34), (1, 32), (2, 26), (3, 24), (4, 28), (5, 28), (6, 27), (7, 21), (8, 24), (9, 29), (10, 23), (11, 33), (12, 28), (13, 17), (14, 25), (15, 28)))


GOLDEN_BUILDER_MINIMAL = (707, '2769812.082036775', 21368965, ((0, 371), (1, 336)), 25517, (20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007, 20007, 25007))

GOLDEN_BUILDER_FULL_STACK = (439, '8318072.845102506', 320123159, ((0, 221), (1, 218)), 19705, (33200, 38200, 32700, 37700, 32700, 37700, 47735, 52735, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700, 32700, 37700))

GOLDEN_BUILDER_FEDERATED = (749, '2549712.4606141523', 22358960, ((0, 89), (1, 89), (2, 86), (3, 86), (4, 96), (5, 110), (6, 98), (7, 95)), 31986, ())

GOLDEN_PLANE_KNOBS = (('scaler+heartbeat+obs', ((2421, '9632734.645187939', 103085076, ((0, 832), (1, 825), (2, 764)), 84025), ((39003700, 'up', 2, '0.6572928716741793', 3),), ((13003700, 2), (26003700, 2), (39003700, 2), (52003700, 3), (65003700, 3), (78003700, 3), (91003700, 3), (104003700, 3)), 76, 80, '4eda75bbc7f011916b25bf410f371fb97240a513dee198789bca98efdd473a7e')), ('scaler-defaults', ((1233, '3583755.6350364964', 39569767, ((0, 510), (1, 557), (2, 127), (3, 39)), 44557), ((150000000, 'down', 3, '0.26960478774468166', 3), (300000000, 'down', 2, '0.2243117525901255', 2)), 20, 2)), ('replay-defaults', ((307, '45804135.17915309', 139643134, ((0, 140), (1, 167)), 15429), 307, 307)), ('replay-knobs', ((456, '11080647.368421054', 66427150, ((0, 216), (1, 240)), 19884), 456, 456)), ('federation-3level', ((487, '2522507.8110882957', 15618874, ((0, 30), (1, 33), (2, 25), (3, 30), (4, 27), (5, 23), (6, 37), (7, 28), (8, 32), (9, 34), (10, 34), (11, 25), (12, 29), (13, 32), (14, 39), (15, 29)), 87711), 6, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13), (14, 15)), 292)))


def _check(name, value, regen):
    """Assert ``value`` against the module constant ``name`` — or, under
    ``--regen-goldens``, rewrite that constant in place and skip."""
    if not regen:
        assert value == globals()[name]
        return
    path = pathlib.Path(__file__)
    src = path.read_text()
    pattern = re.compile(rf"^{name} = .*$", re.MULTILINE)
    assert pattern.search(src), f"constant {name} not found for rewrite"
    path.write_text(pattern.sub(lambda m: f"{name} = {value!r}", src, count=1))
    pytest.skip(f"recaptured {name} in place (--regen-goldens)")


def test_golden_socket_sync(regen_goldens):
    _check("GOLDEN_SOCKET_SYNC", fp_rubis("socket-sync"), regen_goldens)


def test_golden_rdma_sync(regen_goldens):
    _check("GOLDEN_RDMA_SYNC", fp_rubis("rdma-sync", seed=5678), regen_goldens)


def test_golden_openloop_admission(regen_goldens):
    _check("GOLDEN_OPENLOOP", fp_openloop(), regen_goldens)


def test_golden_traced_telemetry(regen_goldens):
    _check("GOLDEN_TRACED", fp_traced(), regen_goldens)


def test_golden_federation(regen_goldens):
    _check("GOLDEN_FEDERATION", fp_federation(), regen_goldens)


def test_golden_federation_3level(regen_goldens):
    _check("GOLDEN_FEDERATION_3LEVEL", fp_federation_3level(), regen_goldens)


def test_golden_verbs(regen_goldens):
    _check("GOLDEN_VERBS", fp_verbs(congestion=False), regen_goldens)


def test_golden_verbs_congestion(regen_goldens):
    _check("GOLDEN_VERBS_CONGESTION", fp_verbs(congestion=True), regen_goldens)


def test_golden_builder_minimal(regen_goldens):
    _check("GOLDEN_BUILDER_MINIMAL", fp_builder(build_minimal()), regen_goldens)


def test_golden_builder_full_stack(regen_goldens):
    app = build_full_stack()
    assert None not in (app.admission, app.telemetry, app.faults, app.heartbeat)
    _check("GOLDEN_BUILDER_FULL_STACK", fp_builder(app), regen_goldens)


def test_golden_builder_federated(regen_goldens):
    app = build_federated()
    assert app.federation is not None
    _check("GOLDEN_BUILDER_FEDERATED", fp_builder(app), regen_goldens)


def test_golden_plane_knobs(regen_goldens):
    _check("GOLDEN_PLANE_KNOBS", fp_plane_knobs(), regen_goldens)
