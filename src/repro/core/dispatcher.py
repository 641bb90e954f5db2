"""The Dispatcher (paper §III-A): buckets → SOUs, values → Tree_buffer.

Two responsibilities:

* hand each non-empty bucket to exactly one SOU (statically, bucket *i*
  to SOU ``i % n_sous``), so all operations that target the same node are
  processed by a single unit and need no locks;
* after combining, the operation count of each bucket is known — that
  count is the *value* estimate the value-aware Tree_buffer uses for the
  nodes the bucket's operations will touch (§III-E: "the number of the
  operations in the corresponding bucket approximates the value of this
  node").

Failover (chaos harness): a fail-stopped SOU (see
:mod:`repro.faults`) keeps its bucket mapping, but :meth:`route`
deterministically re-targets its buckets to the next surviving unit in
ring order.  A bucket is still processed *whole* by exactly one SOU, so
the same-node-same-SOU lock-freedom invariant survives any number of
failures short of all of them; each re-routed bucket is billed as a
re-dispatch by the accelerator's timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core.bucket_table import BucketOps, BucketTables
from repro.errors import ConfigError, SouFailedError
from repro.log import get_logger

LOG = get_logger("dispatcher")


@dataclass
class DispatchedBucket:
    """One bucket assigned to one SOU for the current batch."""

    bucket_id: int
    sou_id: int
    operations: BucketOps
    value: int  # node-value estimate for the Tree_buffer

    @property
    def n_ops(self) -> int:
        return len(self.operations)


class Dispatcher:
    """Static bucket-to-SOU assignment with fail-stop failover."""

    def __init__(self, n_sous: int):
        if n_sous <= 0:
            raise ConfigError(f"n_sous must be positive: {n_sous}")
        self.n_sous = n_sous
        self.dispatched_buckets = 0
        self.failed: Set[int] = set()
        self.failovers = 0          # re-routed buckets, cumulative
        self.failovers_last_batch = 0

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def fail(self, sou_id: int) -> None:
        """Mark an SOU fail-stopped; its buckets re-route from now on."""
        if not 0 <= sou_id < self.n_sous:
            raise ConfigError(f"sou_id out of range: {sou_id}")
        self.failed.add(sou_id)

    @property
    def n_alive(self) -> int:
        return self.n_sous - len(self.failed)

    def route(self, bucket_id: int) -> int:
        """SOU that owns ``bucket_id``, skipping fail-stopped units.

        The primary owner is ``bucket_id % n_sous``; on failure the
        bucket walks the ring to the next survivor.  The walk is a pure
        function of ``(bucket_id, failed set)``, so the assignment is
        deterministic and every bucket lands on exactly one unit.
        """
        primary = bucket_id % self.n_sous
        if primary not in self.failed:
            return primary
        for step in range(1, self.n_sous):
            candidate = (primary + step) % self.n_sous
            if candidate not in self.failed:
                return candidate
        raise SouFailedError(
            "no surviving SOU to take over bucket "
            f"{bucket_id}: all {self.n_sous} units fail-stopped",
            {"bucket_id": bucket_id, "failed_sous": sorted(self.failed)},
        )

    # ------------------------------------------------------------------

    def dispatch(self, tables: BucketTables) -> List[DispatchedBucket]:
        """Assign the batch's non-empty buckets to surviving SOUs."""
        out: List[DispatchedBucket] = []
        self.failovers_last_batch = 0
        for bucket_id, operations in enumerate(tables.buckets):
            if not operations:
                continue
            sou_id = self.route(bucket_id)
            if sou_id != bucket_id % self.n_sous:
                self.failovers += 1
                self.failovers_last_batch += 1
                LOG.debug(
                    "failover: bucket %d re-routed to SOU %d", bucket_id, sou_id
                )
            out.append(
                DispatchedBucket(
                    bucket_id=bucket_id,
                    sou_id=sou_id,
                    operations=operations,
                    value=len(operations),
                )
            )
        self.dispatched_buckets += len(out)
        return out

    def report_metrics(self, registry) -> None:
        """Write the Dispatcher's run totals into a MetricsRegistry."""
        registry.counter("dispatcher.dispatched_buckets", self.dispatched_buckets)
        registry.counter("dispatcher.failover_buckets", self.failovers)
        registry.gauge("dispatcher.failed_sous", len(self.failed))
        registry.gauge("dispatcher.alive_sous", self.n_alive)

    def per_sou_load(self, dispatched: List[DispatchedBucket]) -> List[int]:
        """Operations assigned to each SOU (load-balance diagnostics)."""
        load = [0] * self.n_sous
        for bucket in dispatched:
            load[bucket.sou_id] += bucket.n_ops
        return load
