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


class QuantileDigest:
    """Weighted-centroid digest with a bounded rank error."""

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
