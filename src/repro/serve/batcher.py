"""Size-or-deadline batch former: the open-loop analogue of fixed batches.

Closed-loop, the accelerator always has ``batch_size`` ops on hand.
Open-loop it must choose between waiting for a full batch (amortising
the PCU combine and HBM streaming) and dispatching early (bounding the
first arrival's queueing delay).  The former closes a batch when either

* it holds ``batch_size`` admitted ops, or
* ``deadline_cycles`` have passed since its *first* op arrived

— whichever comes first, mirroring size-or-timeout batching in serving
systems and the level-batched FPGA search literature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError


@dataclass
class FormedBatch:
    """One closed batch, ready for the accelerator session."""

    #: Ids of the batch's ops in the workload's stream, in arrival order.
    op_ids: List[int]
    #: Arrival cycle of each op, aligned with ``op_ids``.
    arrival_cycles: List[int]
    #: Cycle at which the former closed the batch (size reached or
    #: deadline hit); execution cannot start earlier.
    close_cycle: int
    closed_by_deadline: bool = False


@dataclass
class BatchFormer:
    """Accumulates admitted ops and closes batches on size-or-deadline."""

    batch_size: int
    deadline_cycles: int
    _op_ids: List[int] = field(default_factory=list)
    _arrivals: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError(
                f"batch_size must be positive: {self.batch_size}"
            )
        if self.deadline_cycles <= 0:
            raise ConfigError(
                f"deadline_cycles must be positive: {self.deadline_cycles}"
            )

    @property
    def pending(self) -> int:
        """Admitted ops waiting for their batch to close."""
        return len(self._op_ids)

    @property
    def deadline_at(self) -> Optional[int]:
        """Cycle the open batch must close by, or None when empty."""
        if not self._arrivals:
            return None
        return self._arrivals[0] + self.deadline_cycles

    def offer(self, op_id: int, arrival_cycle: int) -> Optional[FormedBatch]:
        """Add one admitted op; return the batch if this op filled it."""
        self._op_ids.append(op_id)
        self._arrivals.append(arrival_cycle)
        if len(self._op_ids) >= self.batch_size:
            return self._close(arrival_cycle, by_deadline=False)
        return None

    def poll(self, now_cycle: int) -> Optional[FormedBatch]:
        """Close the open batch if its deadline has passed by ``now_cycle``."""
        deadline = self.deadline_at
        if deadline is not None and now_cycle >= deadline:
            return self._close(deadline, by_deadline=True)
        return None

    def flush(self, now_cycle: int) -> Optional[FormedBatch]:
        """Close whatever is pending (end of the arrival stream)."""
        if not self._op_ids:
            return None
        deadline = self.deadline_at
        close = min(now_cycle, deadline) if deadline is not None else now_cycle
        return self._close(max(close, self._arrivals[-1]), by_deadline=True)

    def _close(self, close_cycle: int, by_deadline: bool) -> FormedBatch:
        batch = FormedBatch(
            op_ids=self._op_ids,
            arrival_cycles=self._arrivals,
            close_cycle=close_cycle,
            closed_by_deadline=by_deadline,
        )
        self._op_ids = []
        self._arrivals = []
        return batch
