"""Streaming quantile estimation without sample retention.

:class:`QuantileDigest` is a merge digest, O(1)-memory in the stream
length: at most ``2 · compression`` weighted centroids kept sorted; on
overflow adjacent centroids merge greedily under a weight cap of
``ceil(2n / compression)``. Every centroid therefore covers a contiguous
rank range of at most that cap, and midpoint interpolation between
adjacent centroids keeps any reported quantile between the exact
``q ± 3/compression`` quantiles — a hard rank-error bound (≤ 0.3 % at
the default compression of 1024).

:class:`StreamingDigest` bundles a :class:`QuantileDigest` with running
count / mean / min / max and exposes the p50/p95/p99 the dashboard and
alert rules consume.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

import numpy as _np


class QuantileDigest:
    """Mergeable weighted-centroid digest with a bounded rank error."""

    def __init__(self, compression: int = 1024) -> None:
        if compression < 8:
            raise ValueError("compression must be >= 8")
        self.compression = compression
        self._vals: List[float] = []  # sorted centroid values
        self._wts: List[int] = []  # aligned weights
        self.count = 0

    def update(self, x: float) -> None:
        i = bisect.bisect_left(self._vals, x)
        self._vals.insert(i, x)
        self._wts.insert(i, 1)
        self.count += 1
        if len(self._vals) > 2 * self.compression:
            self._compact()

    def _compact(self) -> None:
        """Greedy adjacent merging under a weight cap.

        The cap ``ceil(2n / compression)`` bounds every centroid's rank
        span; because any two adjacent surviving groups jointly exceed
        the cap, at most ``compression + 1`` centroids remain.
        """
        cap = max(2, -(-2 * self.count // self.compression))
        vals, wts = self._vals, self._wts
        new_vals: List[float] = [vals[0]]
        new_wts: List[int] = [wts[0]]
        acc_v = vals[0]
        acc_w = wts[0]
        for i in range(1, len(vals)):
            v = vals[i]
            w = wts[i]
            merged = acc_w + w
            if merged <= cap:
                acc_v = (acc_v * acc_w + v * w) / merged
                acc_w = merged
                new_vals[-1] = acc_v
                new_wts[-1] = acc_w
            else:
                new_vals.append(v)
                new_wts.append(w)
                acc_v = v
                acc_w = w
        self._vals, self._wts = new_vals, new_wts

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Fold ``other``'s centroids into this digest (in place).

        Each incoming centroid lands at its sorted position with its
        weight intact, then the usual compaction cap applies. A single
        merge therefore adds at most one compaction's worth of rank
        error on top of each input's own bound: a two-level merge
        (shards → global) stays within ``2 · 3/compression`` of the
        exact combined-stream quantiles (see docs/FEDERATION.md).

        The merge is a single vectorised sort rather than per-centroid
        ``bisect``+``insert`` (the root re-merges every shard digest
        each round, so this is a hot path). Tie-breaking reproduces the
        sequential ``bisect_left`` replay exactly — incoming centroids
        sort before existing equals, and runs of equal incoming values
        end up in reversed arrival order — so the result is
        byte-identical to the historical loop.
        """
        ov, ow = other._vals, other._wts
        if ov:
            sv, sw = self._vals, self._wts
            n, m = len(sv), len(ov)
            vals = _np.empty(n + m)
            vals[:m] = ov
            vals[m:] = sv
            grp = _np.empty(n + m, dtype=_np.int64)
            grp[:m] = 0
            grp[m:] = 1
            rank = _np.empty(n + m, dtype=_np.int64)
            rank[:m] = -_np.arange(m)
            rank[m:] = _np.arange(n)
            order = _np.lexsort((rank, grp, vals))
            wts = _np.empty(n + m, dtype=_np.int64)
            wts[:m] = ow
            wts[m:] = sw
            self._vals = vals[order].tolist()
            self._wts = wts[order].tolist()
        self.count += other.count
        if len(self._vals) > 2 * self.compression:
            self._compact()
        return self

    def to_state(self) -> tuple:
        """All-immutable snapshot, cheap to ship through a DMA'd buffer.

        Nested tuples of numbers deep-copy by identity, so packing a
        digest into a registered memory region costs O(centroids) once
        at publish time and nothing at read time.
        """
        return (self.compression, self.count,
                tuple(self._vals), tuple(self._wts))

    @classmethod
    def from_state(cls, state: tuple) -> "QuantileDigest":
        compression, count, vals, wts = state
        qd = cls(compression)
        qd.count = count
        qd._vals = list(vals)
        qd._wts = list(wts)
        return qd

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` (midpoint-rank interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._vals:
            return 0.0
        target = q * self.count
        cum = 0.0
        prev_mid = None
        prev_val = self._vals[0]
        for v, w in zip(self._vals, self._wts):
            mid = cum + w / 2.0
            if target <= mid:
                if prev_mid is None:
                    return v
                # Interpolate between neighbouring centroid midpoints.
                # The a*(1-f) + b*f form is exact at both endpoints and,
                # with the clamp, keeps estimates inside [prev_val, v] so
                # quantile() stays weakly monotone in q despite rounding.
                frac = (target - prev_mid) / (mid - prev_mid)
                est = prev_val * (1.0 - frac) + v * frac
                return min(max(est, prev_val), v)
            prev_mid, prev_val = mid, v
            cum += w
        return self._vals[-1]

    def __len__(self) -> int:
        return len(self._vals)


class StreamingDigest:
    """Count / mean / min / max plus quantiles, all streaming."""

    __slots__ = ("count", "mean", "lo", "hi", "_m2", "_qd")

    def __init__(self, compression: int = 1024) -> None:
        self.count = 0
        self.mean = 0.0
        self.lo = float("inf")
        self.hi = float("-inf")
        self._m2 = 0.0
        self._qd = QuantileDigest(compression)

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.lo:
            self.lo = x
        if x > self.hi:
            self.hi = x
        self._qd.update(x)

    def merge(self, other: "StreamingDigest") -> "StreamingDigest":
        """Fold ``other`` into this digest (parallel Welford combine).

        Count/mean/m2 combine exactly (Chan et al.); min/max are exact;
        quantiles inherit :meth:`QuantileDigest.merge`'s bound.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.mean, self._m2 = other.mean, other._m2
        else:
            total = self.count + other.count
            delta = other.mean - self.mean
            self.mean += delta * other.count / total
            self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count += other.count
        self.lo = min(self.lo, other.lo)
        self.hi = max(self.hi, other.hi)
        self._qd.merge(other._qd)
        return self

    def to_state(self) -> tuple:
        """All-immutable snapshot (see :meth:`QuantileDigest.to_state`)."""
        return (self.count, self.mean, self.lo, self.hi, self._m2,
                self._qd.to_state())

    @classmethod
    def from_state(cls, state: tuple) -> "StreamingDigest":
        count, mean, lo, hi, m2, qd_state = state
        sd = cls(qd_state[0])
        sd.count, sd.mean, sd.lo, sd.hi, sd._m2 = count, mean, lo, hi, m2
        sd._qd = QuantileDigest.from_state(qd_state)
        return sd

    def quantile(self, q: float) -> float:
        return self._qd.quantile(q)

    @property
    def p50(self) -> float:
        return self._qd.quantile(0.50)

    @property
    def p95(self) -> float:
        return self._qd.quantile(0.95)

    @property
    def p99(self) -> float:
        return self._qd.quantile(0.99)

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return self.variance ** 0.5

    @property
    def maximum(self) -> float:
        return self.hi if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self.lo if self.count else 0.0

    def summary(self) -> dict:
        """Plain-dict summary (stable key order for export)."""
        return {
            "count": self.count,
            "mean": self.mean if self.count else 0.0,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


def exact_quantiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Reference implementation (sort + linear interpolation), for tests."""
    ordered = sorted(values)
    out = []
    n = len(ordered)
    for q in qs:
        if n == 0:
            out.append(0.0)
            continue
        pos = q * (n - 1)
        i = int(pos)
        frac = pos - i
        hi: Optional[float] = ordered[min(i + 1, n - 1)]
        out.append(ordered[i] * (1 - frac) + hi * frac)
    return out
