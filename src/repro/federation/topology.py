"""Shard topology: who monitors whom.

Partitions N back-ends into shards with a deterministic, seed-stable
assignment (contiguous blocks of the index order — no RNG draw, so
installing the federation can never perturb any other component's
stream). Quarantine events from the fault plane / heartbeat shrink a
shard's *active* member set; with ``rebalance_on_quarantine`` the
surviving members are re-split evenly across the shards and the
``generation`` counter is bumped so stale shard views are identifiable
downstream.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set


def auto_shard_count(num_backends: int) -> int:
    """Default shard count: ceil(sqrt(N)) balances the two fan-outs.

    The root polls ``num_shards`` leaves and each leaf polls
    ``N / num_shards`` members; sqrt(N) keeps both tiers' rounds at
    O(sqrt(N)) instead of the flat front-end's O(N).
    """
    return max(1, math.isqrt(max(1, num_backends - 1)) + 1) \
        if num_backends > 1 else 1


def auto_shard_count_3level(num_backends: int) -> int:
    """Default shard count for a three-tier fabric: ceil(N / cbrt(N)).

    With a region tier between leaves and root, balancing all three
    fan-outs means ~N^(1/3) members per leaf, ~N^(1/3) leaves per
    region and ~N^(1/3) regions under the root. Computed via the
    rounded integer cube root so exact cubes land exactly (N=4096 →
    256 shards of 16, not a float-fuzz 257).
    """
    if num_backends <= 1:
        return 1
    k = max(1, round(num_backends ** (1.0 / 3.0)))
    return -(-num_backends // k)


def auto_region_count(num_shards: int) -> int:
    """Default region count: ceil(sqrt(num_shards)).

    Splits the leaf fan-in evenly between the region tier and the
    root, mirroring :func:`auto_shard_count` one level up.
    """
    return auto_shard_count(num_shards)


class ShardTopology:
    """Deterministic back-end → shard assignment with quarantine."""

    def __init__(
        self,
        num_backends: int,
        num_shards: int = 0,
        rebalance_on_quarantine: bool = True,
    ) -> None:
        if num_backends < 1:
            raise ValueError("need at least one back-end")
        if num_shards < 0:
            raise ValueError("num_shards must be >= 0 (0 = auto)")
        if num_shards > num_backends:
            raise ValueError("num_shards must not exceed num_backends")
        self.num_backends = num_backends
        self.num_shards = num_shards if num_shards else auto_shard_count(num_backends)
        self.rebalance_on_quarantine = rebalance_on_quarantine
        #: the immutable deploy-time assignment (leaf schemes that need
        #: per-member state — sockets, push buffers — deploy over this)
        self.static_assignment: List[List[int]] = self._split(
            list(range(num_backends)), self.num_shards)
        #: the current assignment consulted every poll round
        self.assignment: List[List[int]] = [list(s) for s in self.static_assignment]
        #: bumped on every re-split; stamped into shard snapshots so the
        #: root can tell which layout a view was collected under
        self.generation = 0
        self.quarantined: Set[int] = set()
        #: rebalance count (diagnostics)
        self.rebalances = 0

    @staticmethod
    def _split(members: Sequence[int], shards: int) -> List[List[int]]:
        """Contiguous near-even blocks: first ``N % shards`` get one extra."""
        n = len(members)
        base, extra = divmod(n, shards)
        out: List[List[int]] = []
        start = 0
        for j in range(shards):
            size = base + (1 if j < extra else 0)
            out.append(list(members[start:start + size]))
            start += size
        return out

    # ------------------------------------------------------------------
    def members(self, shard: int) -> List[int]:
        """Active (non-quarantined) members a leaf should poll now."""
        return [b for b in self.assignment[shard] if b not in self.quarantined]

    def shard_of(self, backend: int) -> int:
        for j, shard in enumerate(self.assignment):
            if backend in shard:
                return j
        raise KeyError(f"backend {backend} not in any shard")

    def active_backends(self) -> List[int]:
        return [b for b in range(self.num_backends) if b not in self.quarantined]

    # ------------------------------------------------------------------
    def quarantine(self, backend: int) -> bool:
        """Remove a back-end from the polled set; returns True on change."""
        if backend < 0 or backend >= self.num_backends or backend in self.quarantined:
            return False
        self.quarantined.add(backend)
        self.rebalance()
        return True

    def release(self, backend: int) -> bool:
        """Re-admit a recovered back-end; returns True on change."""
        if backend not in self.quarantined:
            return False
        self.quarantined.discard(backend)
        self.rebalance()
        return True

    def rebalance(self) -> None:
        """Re-split the surviving members evenly; bump the generation.

        Does nothing on a topology built without
        ``rebalance_on_quarantine``: its leaves poll only their static
        shard, so a re-split would hand a member to a leaf that cannot
        poll it.

        Deterministic: members stay in index order and the split is the
        same contiguous-blocks rule as at deploy time, so two same-seed
        runs quarantining the same back-ends agree on every assignment.
        """
        if not self.rebalance_on_quarantine:
            return
        self.assignment = self._split(self.active_backends(), self.num_shards)
        self.generation += 1
        self.rebalances += 1

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "num_backends": self.num_backends,
            "num_shards": self.num_shards,
            "generation": self.generation,
            "assignment": [list(s) for s in self.assignment],
            "quarantined": sorted(self.quarantined),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ShardTopology {self.num_backends} backends / "
                f"{self.num_shards} shards gen={self.generation}>")
