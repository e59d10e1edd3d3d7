"""ShardSnapshot packing and staleness propagation."""

import copy

from repro.federation import ShardSnapshot, pack_info, unpack_info
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


def test_snapshot_roundtrip_preserves_member_order():
    snap = ShardSnapshot(shard=2, epoch=3, generation=1, published_at=10)
    snap.nodes = {5: _info(5), 1: _info(1)}
    packed = snap.pack()
    assert len(packed) == 5  # (shard, epoch, generation, published_at, nodes)
    back = ShardSnapshot.unpack(packed)
    assert sorted(back.nodes) == [1, 5]
    assert snap.wire_bytes(64, 96) == 64 + 2 * 96
