"""The Prefix-based Combining Unit (paper §III-B, Fig. 5 left).

Three pipeline stages — ``Scan_Operation`` → ``Get_Prefix`` →
``Combine_Operation`` — sustain one operation per cycle in steady state.
The timing model therefore bills:

* the pipeline fill (3 cycles),
* one cycle per scanned operation,
* and the Bucket_buffer spill: bucket records beyond the 2 MB on-chip
  buffer stream to the off-chip Bucket_Tables at a per-line cost.

The functional side (actually appending operations to bucket lists) lives
in :class:`repro.core.bucket_table.BucketTables`; the PCU composes it
with the cycle accounting so a batch is combined in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.art.stats import CACHE_LINE_BYTES
from repro.core.bucket_table import BucketTables
from repro.model.costs import FpgaCosts
from repro.workloads.ops import IdArray, OperationStream


@dataclass
class PcuBatchOutcome:
    """Timing and bookkeeping for one combined batch."""

    n_ops: int
    cycles: int
    spilled_bytes: int


class PrefixCombiningUnit:
    """Cycle-accounted wrapper around the bucket-combining function."""

    def __init__(self, tables: BucketTables, costs: FpgaCosts):
        self.tables = tables
        self.costs = costs
        self.total_cycles = 0
        self.total_ops = 0

    def combine_batch(
        self, stream: OperationStream, ids: IdArray
    ) -> PcuBatchOutcome:
        """Combine the batch ``ids``; the tables are cleared first."""
        spilled_before = self.tables.spilled_bytes
        self.tables.clear()
        self.tables.combine(stream, ids)
        spilled = self.tables.spilled_bytes - spilled_before

        n_ops = len(ids)
        cycles = self.costs.pcu_pipeline_fill_cycles
        cycles += int(n_ops * self.costs.pcu_cycles_per_op)
        spill_lines = -(-spilled // CACHE_LINE_BYTES)
        cycles += spill_lines * self.costs.bucket_flush_cycles_per_line

        self.total_cycles += cycles
        self.total_ops += n_ops
        return PcuBatchOutcome(n_ops=n_ops, cycles=cycles, spilled_bytes=spilled)

    def report_metrics(self, registry) -> None:
        """Write the PCU's run totals into a MetricsRegistry."""
        registry.counter("pcu.total_cycles", self.total_cycles)
        registry.counter("pcu.total_ops", self.total_ops)
        registry.counter("pcu.spilled_bytes", self.tables.spilled_bytes)
