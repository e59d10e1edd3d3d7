"""Snapshot writer: per-epoch files, observer order, surface wiring."""

import pytest

from repro.config import SimConfig
from repro.obs.openmetrics import validate_exposition
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshots import SnapshotWriter
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.rubis import RubisWorkload


def make_registry():
    reg = MetricsRegistry()
    reg.register(lambda: [reg.family("up", "gauge", "x").add(1)])
    return reg


def test_write_sequence_and_paths(tmp_path):
    writer = SnapshotWriter(make_registry(), tmp_path)
    writer.write()
    writer.write()
    names = [p.name for p in writer.paths]
    assert names == ["metrics-000001.prom", "metrics-000002.prom"]
    for p in writer.paths:
        assert validate_exposition(p.read_text()) == []


def test_explicit_sequence_number(tmp_path):
    writer = SnapshotWriter(make_registry(), tmp_path, prefix="epoch")
    path = writer.write(seq=42)
    assert path.name == "epoch-000042.prom"


def test_attach_writes_every_nth_epoch(tmp_path):
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=2, master_seed=9)
    cluster = (ClusterBuilder(cfg).scheme("rdma-sync")
               .observability(snapshot_dir=str(tmp_path), snapshot_every=5)
               .build())
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=8,
                  think_time=8 * MILLISECOND).start()
    cluster.run(1 * SECOND)  # 20 epochs at the 50 ms default interval
    paths = cluster.obs.writer.paths
    assert len(paths) == cluster.monitor.epoch // 5
    assert all(p.exists() for p in paths)
    assert validate_exposition(paths[-1].read_text()) == []


def test_attach_preserves_existing_observer(tmp_path):
    """A round observer appended after the writer runs every round,
    after the writer has written that round's snapshot."""
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=2, master_seed=9)
    builder = (ClusterBuilder(cfg).scheme("rdma-sync")
               .observability(snapshot_dir=str(tmp_path)))
    cluster = builder.build()
    writer = cluster.obs.writer
    calls = []
    cluster.monitor.round_observers.append(
        lambda epoch, latest: calls.append((epoch, len(writer.paths))))
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=4,
                  think_time=10 * MILLISECOND).start()
    cluster.run(200 * MILLISECOND)
    assert cluster.telemetry.observations > 0  # per-report observer fired
    assert len(calls) == cluster.monitor.epoch > 0
    assert [epoch for epoch, _ in calls] == list(range(1, len(calls) + 1))
    assert all(epoch == written for epoch, written in calls)


def test_snapshot_content_matches_inline_render(tmp_path):
    from repro.api import ClusterBuilder

    cfg = SimConfig(num_backends=2, master_seed=9)
    cluster = (ClusterBuilder(cfg).scheme("rdma-sync")
               .observability(snapshot_dir=str(tmp_path)).build())
    RubisWorkload(cluster.sim, cluster.dispatcher, num_clients=4,
                  think_time=10 * MILLISECOND).start()
    cluster.run(300 * MILLISECOND)
    path = cluster.obs.snapshot()
    assert path.read_text() == cluster.obs.exposition()


def test_snapshot_cadence_validation(tmp_path):
    with pytest.raises(ValueError, match="cadence"):
        SnapshotWriter(MetricsRegistry(), tmp_path, every=0)
