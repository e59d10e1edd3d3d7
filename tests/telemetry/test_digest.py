"""Streaming quantile accuracy against numpy's exact percentiles."""

import numpy as np
import pytest

from repro.telemetry.digest import QuantileDigest, StreamingDigest


def test_quantile_digest_exact_below_compression():
    d = QuantileDigest(compression=64)
    xs = list(range(50))
    for x in xs:
        d.update(float(x))
    # No compaction happened: quantiles interpolate the raw samples.
    assert d.quantile(0.0) == 0.0
    assert d.quantile(1.0) == 49.0
    assert d.quantile(0.5) == pytest.approx(np.percentile(xs, 50), abs=1.0)


@pytest.mark.parametrize("dist", ["uniform", "normal", "exponential"])
def test_quantile_digest_one_percent_accuracy(dist):
    rng = np.random.default_rng(42)
    xs = getattr(rng, dist)(size=100_000)
    d = QuantileDigest(compression=1024)
    for x in xs:
        d.update(float(x))
    span = float(np.max(xs) - np.min(xs))
    for q in (0.50, 0.95, 0.99):
        exact = float(np.percentile(xs, q * 100))
        assert abs(d.quantile(q) - exact) <= 0.01 * span, (dist, q)


def test_quantile_digest_rank_error_bound():
    """Reported quantiles lie within the q +/- 3/compression rank band."""
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.normal(0, 1, 30_000), rng.normal(50, 5, 5_000)])
    comp = 256
    d = QuantileDigest(compression=comp)
    for x in xs:
        d.update(float(x))
    eps = 3.0 / comp
    for q in (0.1, 0.5, 0.9, 0.99):
        lo = float(np.quantile(xs, max(0.0, q - eps)))
        hi = float(np.quantile(xs, min(1.0, q + eps)))
        assert lo - 1e-9 <= d.quantile(q) <= hi + 1e-9, q


def test_quantile_digest_bounded_size():
    d = QuantileDigest(compression=128)
    for i in range(100_000):
        d.update(float(i))
    assert len(d) <= 2 * 128
    assert d.count == 100_000


def test_streaming_digest_moments():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-5, 5, 20_000)
    sd = StreamingDigest()
    for x in xs:
        sd.update(float(x))
    assert sd.count == len(xs)
    assert sd.mean == pytest.approx(float(np.mean(xs)), abs=1e-9)
    assert sd.std == pytest.approx(float(np.std(xs)), rel=1e-6)
    assert sd.minimum == float(np.min(xs))
    assert sd.maximum == float(np.max(xs))
    summary = sd.summary()
    assert set(summary) == {"count", "mean", "min", "max", "p50", "p95", "p99"}


def test_streaming_digest_empty():
    sd = StreamingDigest()
    assert sd.p50 == 0.0 and sd.minimum == 0.0 and sd.maximum == 0.0
    assert sd.summary()["count"] == 0
