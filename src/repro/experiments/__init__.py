"""One module per table/figure of the paper's evaluation (see DESIGN.md §4).

=================== ================================================
Module              Paper result
=================== ================================================
fig3_latency        Fig 3 — monitoring latency vs background load
fig4_granularity    Fig 4 — app perturbation vs granularity
fig5_accuracy       Fig 5 — accuracy of load information
fig6_interrupts     Fig 6 — pending interrupts per CPU
table1_rubis        Table 1 — RUBiS per-query response times
fig7_zipf           Fig 7 — RUBiS+Zipf throughput improvement vs α
fig8_ganglia        Fig 8 — RUBiS max response with gmetric collection
fig9_finegrained    Fig 9 — fine vs coarse granularity throughput
=================== ================================================
"""

from repro.experiments.common import ExperimentResult
from repro.experiments import (
    ablations,
    capacity,
    design_space,
    elastic_replay,
    fault_matrix,
    fig3_latency,
    fig4_granularity,
    fig5_accuracy,
    fig6_interrupts,
    fig7_zipf,
    fig8_ganglia,
    fig9_finegrained,
    scalability,
    table1_rubis,
    telemetry_overhead,
)

__all__ = [
    "ExperimentResult",
    "fig3_latency",
    "fig4_granularity",
    "fig5_accuracy",
    "fig6_interrupts",
    "fig7_zipf",
    "fig8_ganglia",
    "fig9_finegrained",
    "scalability",
    "ablations",
    "design_space",
    "elastic_replay",
    "fault_matrix",
    "capacity",
    "table1_rubis",
    "telemetry_overhead",
]
