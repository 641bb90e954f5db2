"""The 16 Bucket_Tables and the on-chip Bucket_buffer (paper §III-B).

The PCU appends each scanned operation to the Bucket_Table matching its
prefix.  Tables live in off-chip memory; the 2 MB Bucket_buffer absorbs
the appends, so a spill to HBM happens only when a batch's combined
operations exceed the buffer (the spilled bytes are billed by the PCU's
timing model).

:class:`BucketTables` is per-batch state: ``clear()`` starts a new batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.config import OP_RECORD_BYTES
from repro.core.prefixing import PrefixExtractor
from repro.errors import ConfigError
from repro.workloads.ops import IdArray, OperationStream, OpKind


@dataclass(slots=True)
class BucketOps:
    """Operations in arrival order: their ids and the columns the SOU reads."""

    op_ids: IdArray
    kinds: List[OpKind]
    keys: List[bytes]
    values: List[object]
    scan_counts: List[int]

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def gather(cls, stream: OperationStream, ids: IdArray) -> "BucketOps":
        """The ops ``ids`` of ``stream``, in the order given."""
        return cls(ids, *stream.gather(ids))


_NO_IDS = np.zeros(0, dtype=np.int64)


class BucketTables:
    """Per-batch operation buckets keyed by prefix."""

    def __init__(
        self,
        extractor: PrefixExtractor,
        n_buckets: int,
        buffer_bytes: int,
    ):
        if n_buckets <= 0:
            raise ConfigError(f"n_buckets must be positive: {n_buckets}")
        if buffer_bytes <= 0:
            raise ConfigError(f"buffer_bytes must be positive: {buffer_bytes}")
        self.extractor = extractor
        self.n_buckets = n_buckets
        self.buffer_bytes = buffer_bytes
        self.buckets: List[BucketOps] = []
        self.clear()
        self.spilled_bytes = 0
        self.batches_combined = 0

    def clear(self) -> None:
        """Start a new batch (the Bucket_buffer is recycled)."""
        empty = BucketOps(_NO_IDS, [], [], [], [])
        self.buckets = [empty] * self.n_buckets
        self.total_ops = 0

    def combine(self, stream: OperationStream, ids: IdArray) -> None:
        """The PCU's Combine_Operation stage for the batch ``ids``.

        Bucket assignment is computed for the whole batch at once
        (:meth:`PrefixExtractor.buckets_for`), from keys gathered once
        per batch.  A stable argsort of the bucket indices orders the
        ids bucket by bucket, arrival order kept within each bucket; the
        columns are gathered in that order once, and each bucket takes
        a slice of them.
        """
        n = len(ids)
        if n:
            indices = self.extractor.buckets_for(stream.keys[ids].tolist())
            order = np.argsort(indices, kind="stable")
            sorted_ids = ids[order]
            kinds, keys, values, scan_counts = stream.gather(sorted_ids)
            counts = np.bincount(indices, minlength=self.n_buckets)
            buckets = self.buckets
            start = 0
            for index, count in enumerate(counts.tolist()):
                if count:
                    end = start + count
                    bucket = buckets[index]
                    if bucket:  # combined again before clear(): append
                        buckets[index] = BucketOps(
                            np.concatenate((bucket.op_ids, sorted_ids[start:end])),
                            bucket.kinds + kinds[start:end],
                            bucket.keys + keys[start:end],
                            bucket.values + values[start:end],
                            bucket.scan_counts + scan_counts[start:end],
                        )
                    else:
                        buckets[index] = BucketOps(
                            sorted_ids[start:end],
                            kinds[start:end],
                            keys[start:end],
                            values[start:end],
                            scan_counts[start:end],
                        )
                    start = end
            self.total_ops += n
        overflow = self.total_ops * OP_RECORD_BYTES - self.buffer_bytes
        if overflow > 0:
            self.spilled_bytes += overflow
        self.batches_combined += 1

    def occupancy(self) -> List[int]:
        """Operations per bucket (the dispatcher's load view)."""
        return [len(bucket) for bucket in self.buckets]

    @property
    def imbalance(self) -> float:
        """Max-over-mean bucket occupancy (1.0 = perfectly balanced)."""
        counts = self.occupancy()
        total = sum(counts)
        if total == 0:
            return 0.0
        return max(counts) / (total / self.n_buckets)

    def nonempty_buckets(self) -> int:
        return sum(1 for bucket in self.buckets if bucket)
