"""Tests for RNG streams and time units."""

import numpy as np

from repro.sim.rng import RngRegistry
from repro.sim import units


def test_streams_are_deterministic():
    a = RngRegistry(seed := 1234).stream("arrivals")
    b = RngRegistry(seed).stream("arrivals")
    assert np.allclose(a.random(16), b.random(16))


def test_streams_are_independent_of_creation_order():
    r1 = RngRegistry(7)
    r2 = RngRegistry(7)
    _ = r1.stream("other")  # created first in r1 only
    x = r1.stream("target").random(8)
    y = r2.stream("target").random(8)
    assert np.allclose(x, y)


def test_different_names_differ():
    reg = RngRegistry(7)
    assert not np.allclose(reg.stream("a").random(8), reg.stream("b").random(8))


def test_same_name_returns_same_stream():
    reg = RngRegistry(7)
    s1 = reg.stream("x")
    s1.random(4)
    s2 = reg.stream("x")
    assert s1 is s2


def test_fork_changes_streams():
    reg = RngRegistry(7)
    forked = reg.fork(1)
    assert not np.allclose(reg.stream("a").random(8), forked.stream("a").random(8))


def test_unit_conversions_roundtrip():
    assert units.us(1) == 1_000
    assert units.ms(1) == 1_000_000
    assert units.seconds(1) == 1_000_000_000
    assert units.to_us(units.us(12.5)) == 12.5
    assert units.to_ms(units.ms(3)) == 3.0
    assert units.to_seconds(units.seconds(2)) == 2.0


def test_fmt_time_units():
    assert units.fmt_time(5) == "5ns"
    assert units.fmt_time(1_500) == "1.500us"
    assert units.fmt_time(2_500_000) == "2.500ms"
    assert units.fmt_time(3_000_000_000) == "3.000s"
