"""Measurement helpers: statistics, ground truth, reports."""

from repro.analysis.stats import (
    deviation_series,
    mean,
    percentile,
    summarize,
)
from repro.analysis.truth import GroundTruthSampler
from repro.analysis.report import format_table, format_series

__all__ = [
    "GroundTruthSampler",
    "deviation_series",
    "format_series",
    "format_table",
    "mean",
    "percentile",
    "summarize",
]
