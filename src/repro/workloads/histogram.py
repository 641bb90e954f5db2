"""Per-prefix operation histograms (paper Fig. 3).

Fig. 3 plots, for each real-world workload, how many operations target
keys led by each 8-bit prefix (0x00–0xFF).  The same figure grounds both
of the paper's observations:

* *temporal similarity* — a handful of prefixes draw an order of
  magnitude more operations than the rest (IPGEO peaks above 24 000 at
  prefix 0x67);
* *spatial similarity* — ">96.65 % of tree traversals access only 5 % of
  the nodes", summarised here by :func:`concentration`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.ops import OperationStream


class PrefixHistogram:
    """Counts of operations per 8-bit key prefix."""

    def __init__(self, counts: Sequence[int], byte_offset: int = 0):
        if len(counts) != 256:
            raise WorkloadError(f"prefix histogram needs 256 bins, got {len(counts)}")
        self.counts: List[int] = [int(c) for c in counts]
        self.byte_offset = byte_offset

    @classmethod
    def from_operations(
        cls, operations: OperationStream, byte_offset: int = 0
    ) -> "PrefixHistogram":
        """Counts over the key column of a stream."""
        counts = [0] * 256
        for key in operations.keys.tolist():
            if byte_offset < len(key):
                counts[key[byte_offset]] += 1
        return cls(counts, byte_offset)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def hottest(self) -> Tuple[int, int]:
        """``(prefix, count)`` of the most-targeted prefix."""
        prefix = max(range(256), key=lambda p: self.counts[p])
        return prefix, self.counts[prefix]

    @property
    def nonzero_prefixes(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    def share(self, prefix: int) -> float:
        """Fraction of all operations targeting ``prefix``."""
        if self.total == 0:
            return 0.0
        return self.counts[prefix] / self.total

    def top_share(self, n_prefixes: int) -> float:
        """Fraction of operations on the ``n_prefixes`` hottest prefixes."""
        if self.total == 0:
            return 0.0
        top = sorted(self.counts, reverse=True)[:n_prefixes]
        return sum(top) / self.total

    def skew_ratio(self) -> float:
        """Hottest-prefix count over the mean non-zero count.

        Fig. 3's visual signature: the peak towers over the typical bar.
        """
        nonzero = [c for c in self.counts if c > 0]
        if not nonzero:
            return 0.0
        return max(nonzero) / (sum(nonzero) / len(nonzero))

    def as_dict(self) -> Dict[int, int]:
        return {p: c for p, c in enumerate(self.counts) if c > 0}


def concentration(access_counts: Iterable[int], top_fraction: float) -> float:
    """Share of accesses landing on the hottest ``top_fraction`` of items.

    ``concentration(per_node_traversals, 0.05)`` reproduces the paper's
    Observation 2 statistic (>96.65 % on 5 % of nodes for real-world
    workloads).
    """
    if not 0 < top_fraction <= 1:
        raise WorkloadError(f"top_fraction must be in (0, 1]: {top_fraction}")
    counts = np.asarray(sorted(access_counts, reverse=True), dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    cutoff = max(1, int(len(counts) * top_fraction))
    return float(counts[:cutoff].sum() / total)
