"""Experiment harness: engines × workloads → the paper's tables/figures.

* :mod:`runner`      — build the engine roster (with working-set-scaled
  cache capacities) and run engine × workload grids;
* :mod:`comparison`  — speedups, energy savings, bands;
* :mod:`formatting`  — fixed-width text rendering for bench output;
* :mod:`experiments` — one entry point per paper figure/table.
"""

from repro.harness.runner import (
    DEFAULT_SCALE_REFERENCE,
    default_engines,
    run_matrix,
    scaled_cpu_costs,
    scaled_dcart_config,
    scaled_gpu_costs,
)
from repro.harness.comparison import energy_savings, speedups
from repro.harness.formatting import format_table

__all__ = [
    "DEFAULT_SCALE_REFERENCE",
    "default_engines",
    "energy_savings",
    "format_table",
    "run_matrix",
    "scaled_cpu_costs",
    "scaled_dcart_config",
    "scaled_gpu_costs",
    "speedups",
]
