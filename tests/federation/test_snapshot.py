"""ShardSnapshot packing, staleness propagation, digest merge bounds."""

import copy
import random

from repro.federation import ShardSnapshot, merge_digest_states, pack_info, unpack_info
from repro.telemetry.digest import StreamingDigest, exact_quantiles
from repro.monitoring.loadinfo import LoadInfo


def _info(i, collected_at=1_000, received_at=2_000, irq=False):
    return LoadInfo(
        backend=f"backend{i}",
        collected_at=collected_at,
        received_at=received_at,
        nr_threads=40 + i,
        nr_running=3,
        runq_load=2.5 + i,
        cpu_util=0.25 * (i % 4),
        busy_cpus=1,
        loadavg1=1.5,
        mem_util=0.4,
        net_rate_mbps=12.0,
        gauges={"connections": 7.0, "queue": 2.0},
        irq_pending=(1, 0, 2, 0) if irq else None,
        irq_handled=(9, 8, 7, 6) if irq else None,
    )


def test_pack_unpack_roundtrip_preserves_every_field():
    for irq in (False, True):
        info = _info(3, irq=irq)
        index, back = unpack_info(pack_info(3, info))
        assert index == 3
        for name in ("backend", "collected_at", "received_at", "nr_threads",
                     "nr_running", "runq_load", "cpu_util", "busy_cpus",
                     "loadavg1", "mem_util", "net_rate_mbps", "gauges",
                     "irq_pending", "irq_handled"):
            assert getattr(back, name) == getattr(info, name), name


def test_packed_snapshot_is_all_immutable():
    """deepcopy must return the packed tuple by identity — that is what
    makes a root DMA read of the snapshot region O(1) Python work."""
    snap = ShardSnapshot(shard=1, epoch=7, generation=2, published_at=5_000)
    snap.nodes = {i: _info(i, irq=(i % 2 == 0)) for i in range(3)}
    sd = StreamingDigest(64)
    for v in (1.0, 2.0, 3.0):
        sd.update(v)
    snap.digests = {"cpu_util": sd.to_state()}
    packed = snap.pack()
    assert copy.deepcopy(packed) is packed


def test_unpack_restamps_received_at_for_two_hop_staleness():
    info = _info(0, collected_at=1_000, received_at=2_000)
    snap = ShardSnapshot(shard=0, epoch=1, generation=0, published_at=2_500)
    snap.nodes = {0: info}
    packed = snap.pack()

    leaf_view = ShardSnapshot.unpack(packed)
    assert leaf_view.nodes[0].staleness == 1_000  # leaf hop only

    root_view = ShardSnapshot.unpack(packed, received_at=9_000)
    assert root_view.nodes[0].staleness == 8_000  # both hops
    assert root_view.nodes[0].collected_at == 1_000  # data stamp untouched
    assert root_view.epoch == 1 and root_view.generation == 0


def test_snapshot_roundtrip_preserves_digests_and_order():
    snap = ShardSnapshot(shard=2, epoch=3, generation=1, published_at=10)
    snap.nodes = {5: _info(5), 1: _info(1)}
    sd = StreamingDigest(64)
    sd.update(4.0)
    snap.digests = {"runq_load": sd.to_state()}
    back = ShardSnapshot.unpack(snap.pack())
    assert sorted(back.nodes) == [1, 5]
    assert back.digests["runq_load"] == sd.to_state()
    assert snap.wire_bytes(64, 96) == 64 + 2 * 96


def test_merged_shard_digests_match_flat_within_rank_error_bound():
    """The ISSUE acceptance bound: merged global quantiles from shard
    digests stay within the documented two-level rank error
    (2 * 3/compression) of the flat single-digest stream at N=8."""
    compression = 64
    rank_eps = 2 * 3.0 / compression
    rng = random.Random(42)
    values = [rng.lognormvariate(0.0, 1.0) for _ in range(8 * 500)]

    flat = StreamingDigest(compression)
    shards = [StreamingDigest(compression) for _ in range(3)]
    for i, v in enumerate(values):
        flat.update(v)
        shards[(i % 8) % 3].update(v)  # node i%8 lives on shard (i%8)%3

    merged = merge_digest_states([s.to_state() for s in shards])
    assert merged is not None
    assert merged.count == flat.count == len(values)
    for q in (0.1, 0.5, 0.9, 0.95, 0.99):
        lo, hi = exact_quantiles(
            values, [max(0.0, q - rank_eps), min(1.0, q + rank_eps)])
        assert lo <= merged.quantile(q) <= hi, q


def test_streaming_merge_moments_are_exact():
    rng = random.Random(7)
    values = [rng.gauss(5.0, 2.0) for _ in range(997)]
    flat = StreamingDigest(64)
    parts = [StreamingDigest(64) for _ in range(4)]
    for i, v in enumerate(values):
        flat.update(v)
        parts[i % 4].update(v)
    merged = merge_digest_states([p.to_state() for p in parts])
    assert merged.count == flat.count
    assert abs(merged.mean - flat.mean) < 1e-9
    assert abs(merged.variance - flat.variance) < 1e-6
    assert merged.minimum == flat.minimum
    assert merged.maximum == flat.maximum


def test_merge_with_empty_states():
    assert merge_digest_states([]) is None
    sd = StreamingDigest(64)
    sd.update(1.0)
    merged = merge_digest_states([StreamingDigest(64).to_state(), sd.to_state()])
    assert merged.count == 1 and merged.mean == 1.0
