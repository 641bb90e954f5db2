"""Building operation streams, batches and buckets from rows in tests."""

from typing import Iterable

import numpy as np

from repro.core.bucket_table import BucketOps
from repro.workloads.ops import Operation, OperationStream


def stream_of(rows: Iterable[Operation]) -> OperationStream:
    """A stream of ``rows`` in order, each renumbered to its position."""
    return OperationStream(
        Operation(i, row.kind, row.key, row.value, row.scan_count)
        for i, row in enumerate(rows)
    )


def all_ids(stream: OperationStream) -> np.ndarray:
    """Every op id of ``stream``: the whole stream as one batch."""
    return np.arange(len(stream), dtype=np.int64)


def bucket_of(rows: Iterable[Operation]) -> BucketOps:
    """One bucket holding ``rows`` in order (renumbered by position)."""
    stream = stream_of(rows)
    return BucketOps.gather(stream, all_ids(stream))


def batched(batches):
    """One stream of every batch's rows, in order, and each batch's ids."""
    stream = stream_of(row for batch in batches for row in batch)
    ids, start = [], 0
    for batch in batches:
        ids.append(np.arange(start, start + len(batch), dtype=np.int64))
        start += len(batch)
    return stream, ids
