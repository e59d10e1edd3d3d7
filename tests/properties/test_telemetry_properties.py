"""Property-based invariants of the telemetry plane."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.digest import QuantileDigest, StreamingDigest
from repro.telemetry.ringstore import MetricRing, RingBuffer

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


@given(items=st.lists(st.integers(), min_size=1, max_size=300),
       capacity=st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_ring_buffer_is_exactly_the_newest_suffix(items, capacity):
    ring = RingBuffer(capacity)
    for x in items:
        ring.append(x)
    assert list(ring) == items[-capacity:]
    assert ring.pushed == len(items)
    assert ring.dropped == max(0, len(items) - capacity)


@given(values=st.lists(finite_floats, min_size=1, max_size=500))
@settings(max_examples=60, deadline=None)
def test_metric_ring_tiers_bounded_and_conservative(values):
    ring = MetricRing(capacity=16, decimation=4)
    for t, v in enumerate(values):
        ring.add(t, v)
    for tier in (ring.raw, ring.mid, ring.coarse):
        assert len(tier) <= 16
    # every downsampled block's bounds honour the raw extremes
    lo, hi = min(values), max(values)
    for agg in ring.mid:
        assert lo <= agg.lo <= agg.hi <= hi
        assert agg.lo <= agg.mean <= agg.hi


@given(values=st.lists(finite_floats, min_size=1, max_size=2000))
@settings(max_examples=60, deadline=None)
def test_quantile_digest_stays_within_rank_band(values):
    """digest.quantile(q) lies between the exact quantiles at
    q +/- 3/compression, plus the O(1/n) slack from numpy's q*(n-1)
    position convention vs the digest's q*n weight ranks."""
    comp = 64
    d = QuantileDigest(compression=comp)
    for v in values:
        d.update(v)
    xs = np.array(values)
    eps = 3.0 / comp + 2.0 / len(values)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        got = d.quantile(q)
        lo = float(np.quantile(xs, max(0.0, q - eps)))
        hi = float(np.quantile(xs, min(1.0, q + eps)))
        assert lo - 1e-6 <= got <= hi + 1e-6, (q, got, lo, hi)


@given(values=st.lists(finite_floats, min_size=1, max_size=1000))
@settings(max_examples=60, deadline=None)
def test_quantile_digest_monotonic_in_q(values):
    d = QuantileDigest(compression=32)
    for v in values:
        d.update(v)
    qs = [0.0, 0.1, 0.5, 0.9, 1.0]
    estimates = [d.quantile(q) for q in qs]
    assert estimates == sorted(estimates)
    assert min(values) <= estimates[0] and estimates[-1] <= max(values)


@given(values=st.lists(finite_floats, min_size=1, max_size=500))
@settings(max_examples=60, deadline=None)
def test_streaming_digest_moments_match_numpy(values):
    sd = StreamingDigest(compression=64)
    for v in values:
        sd.update(v)
    xs = np.array(values)
    assert sd.count == len(values)
    assert abs(sd.mean - float(np.mean(xs))) <= 1e-6 * max(1.0, abs(float(np.mean(xs))))
    assert sd.minimum == float(np.min(xs))
    assert sd.maximum == float(np.max(xs))
