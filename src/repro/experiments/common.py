"""Shared experiment plumbing: the structured result every experiment returns.

The application stack the application-level experiments (Table 1,
Figs 7–9) share is built with :class:`repro.api.ClusterBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment run."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    #: x-axis values (granularities, thread counts, alphas, ...)
    xs: List[object] = field(default_factory=list)
    #: series name -> y values aligned with ``xs``
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: free-form per-run tables (Table 1 rows etc.)
    tables: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def series_of(self, name: str) -> List[float]:
        return self.series[name]
