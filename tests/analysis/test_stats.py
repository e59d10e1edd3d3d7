"""Tests for statistics helpers and reports."""

import pytest

from repro.analysis.report import format_series, format_table
from repro.analysis.stats import deviation_series, mean, percentile, summarize


def test_mean_empty():
    assert mean([]) == 0.0


def test_mean_values():
    assert mean([1, 2, 3]) == 2.0


def test_percentile_bounds():
    with pytest.raises(ValueError):
        percentile([1], 120)
    assert percentile([], 50) == 0.0


def test_summarize_fields():
    s = summarize([1, 2, 3, 4, 100])
    assert s["count"] == 5
    assert s["max"] == 100
    assert s["min"] == 1
    assert s["p50"] == 3


def test_summarize_empty():
    s = summarize([])
    assert s["count"] == 0 and s["mean"] == 0.0


def test_deviation_series_step_interpolation():
    truth = [(0, 10.0), (100, 20.0)]
    reported = [(50, 12.0), (150, 12.0)]
    devs = deviation_series(reported, truth)
    assert devs == [(50, 2.0), (150, 8.0)]


def test_deviation_series_before_first_truth():
    truth = [(100, 5.0)]
    devs = deviation_series([(10, 7.0)], truth)
    assert devs == [(10, 2.0)]


def test_deviation_series_empty_truth():
    assert deviation_series([(1, 1.0)], []) == []


def test_format_table_alignment():
    out = format_table(["name", "value"], [["a", 1], ["bb", 22]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_format_series_shared_axis():
    out = format_series("x", [1, 2], {"s1": [0.5, 1.5], "s2": [2.0, 3.0]})
    assert "s1" in out and "s2" in out
    assert "0.50" in out and "3.00" in out
