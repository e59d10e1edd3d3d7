"""repro.federation — hierarchical sharded monitoring fabric.

Scales the paper's single front-end monitor past its 8-node testbed:
a deterministic sharding layer (:mod:`~repro.federation.topology`),
per-shard leaf monitors with batched RDMA fan-out
(:mod:`~repro.federation.leaf`), epoch snapshots of raw member load
records (:mod:`~repro.federation.snapshot`), and a root aggregator that
RDMA-reads each leaf's exported snapshot region and hands each new
member report to its ``observers``, as the flat poller does
(:mod:`~repro.federation.aggregator`). With ``cfg.federation.levels=3``
a region tier (:mod:`~repro.federation.region`) sits between leaves and
root so every fan-out stays near N^(1/3) — the regime that holds
N=4096 inside a 1 ms period. Default-off via
``cfg.federation.enabled`` — see docs/FEDERATION.md.
"""

from repro.federation.aggregator import (
    FederatedMonitor,
    Federation,
    deploy_federation,
)
from repro.federation.leaf import LeafMonitor, ShardView
from repro.federation.region import RegionAggregator, RegionSnapshot
from repro.federation.snapshot import ShardSnapshot, pack_info, unpack_info
from repro.federation.topology import (
    ShardTopology,
    auto_region_count,
    auto_shard_count,
    auto_shard_count_3level,
)

__all__ = [
    "FederatedMonitor",
    "Federation",
    "LeafMonitor",
    "RegionAggregator",
    "RegionSnapshot",
    "ShardSnapshot",
    "ShardTopology",
    "ShardView",
    "auto_region_count",
    "auto_shard_count",
    "auto_shard_count_3level",
    "deploy_federation",
    "pack_info",
    "unpack_info",
]
