"""Operation and workload containers.

An *operation* is what the paper's engines process: read or write a
key-value item over the ART (§II-A).  Writes that address a key already in
the tree are value updates; writes that address a new key are structural
inserts — both are ``WRITE`` here, and the engines resolve which work they
imply, exactly as an upsert-style store would.

A stream stores its operations as columns, the way DCART's PCU reads them
as fixed records from the Scan_buffer: one kind code, key, value and scan
count per op.  An op's id is its position in the stream, and a batch is
an array of ids.  :class:`Operation` rows exist only for callers that ask
for one (``stream[i]``, ``iter(stream)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import WorkloadError


class OpKind(enum.Enum):
    """The operation kinds the paper evaluates."""

    READ = "read"
    WRITE = "write"
    DELETE = "delete"
    SCAN = "scan"

    @property
    def is_write(self) -> bool:
        return self in (OpKind.WRITE, OpKind.DELETE)


#: The kind column's codes: ``OP_KINDS[code]`` is the member.
OP_KINDS: Tuple[OpKind, ...] = tuple(OpKind)
KIND_CODE = {kind: code for code, kind in enumerate(OP_KINDS)}
#: ``code -> member`` as a gather table for whole id arrays.
_KIND_MEMBERS = np.array(OP_KINDS, dtype=object)
#: ``code -> kind.is_write``: masks the ops that mutate the tree.
IS_WRITE = np.array([kind.is_write for kind in OP_KINDS])

#: An array of op ids: a batch, a bucket, any subset of a stream.
IdArray = npt.NDArray[np.int64]

#: Ops gathered per step by code that walks a whole stream.
CHUNK_OPS = 4096


@dataclass(slots=True)
class Operation:
    """One key-value operation: a row of an :class:`OperationStream`.

    ``value`` is the payload for writes; ``scan_count`` bounds a range
    scan.  ``op_id`` is the op's position in its stream, which preserves
    arrival order.
    """

    op_id: int
    kind: OpKind
    key: bytes
    value: Optional[object] = None
    scan_count: int = 0


def _object_column(items: Sequence[object]) -> np.ndarray:
    """A 1-D object array holding ``items`` themselves, whatever they are."""
    return np.fromiter(items, dtype=object, count=len(items))


class OperationStream:
    """An ordered sequence of operations, stored as columns.

    * ``kind_codes`` — int8, one code per op into :data:`OP_KINDS`;
    * ``keys`` — object array of the keys' ``bytes`` objects;
    * ``values`` — object array, ``None`` for ops that carry no payload;
    * ``scan_counts`` — int64, the bound of each range scan (0 otherwise).

    ``OperationStream(rows)`` builds the columns from :class:`Operation`
    rows whose ``op_id`` is their position; :meth:`from_columns` adopts
    columns without copying.
    """

    __slots__ = ("kind_codes", "keys", "values", "scan_counts")

    def __init__(self, rows: Iterable[Operation] = ()):
        rows = list(rows)
        for position, row in enumerate(rows):
            if row.op_id != position:
                raise WorkloadError(
                    f"op {position} has id {row.op_id!r}: an op's id is its "
                    "position in the stream"
                )
        n = len(rows)
        self.kind_codes = np.fromiter(
            (KIND_CODE[row.kind] for row in rows), dtype=np.int8, count=n
        )
        self.keys = _object_column([row.key for row in rows])
        self.values = _object_column([row.value for row in rows])
        self.scan_counts = np.fromiter(
            (row.scan_count for row in rows), dtype=np.int64, count=n
        )

    @classmethod
    def from_columns(
        cls,
        kind_codes: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        scan_counts: np.ndarray,
    ) -> "OperationStream":
        """A stream over existing columns (adopted, not copied)."""
        n = len(kind_codes)
        if not len(keys) == len(values) == len(scan_counts) == n:
            raise WorkloadError("operation columns differ in length")
        stream = cls.__new__(cls)
        stream.kind_codes = kind_codes
        stream.keys = keys
        stream.values = values
        stream.scan_counts = scan_counts
        return stream

    def __len__(self) -> int:
        return len(self.kind_codes)

    def __getitem__(self, index: int) -> Operation:
        """The op at ``index`` as a row (negative indices count back)."""
        n = len(self)
        position = index + n if index < 0 else index
        if not 0 <= position < n:
            raise IndexError(f"op index {index} out of range for {n} ops")
        return Operation(
            position,
            OP_KINDS[self.kind_codes[position]],
            self.keys[position],
            self.values[position],
            int(self.scan_counts[position]),
        )

    def __iter__(self) -> Iterator[Operation]:
        """Every op as a row, built a chunk at a time."""
        for ids in self.batches(CHUNK_OPS):
            yield from map(Operation, ids.tolist(), *self.gather(ids))

    def gather(
        self, ids: IdArray
    ) -> Tuple[List[OpKind], List[bytes], List[object], List[int]]:
        """``(kinds, keys, values, scan_counts)`` of the ops ``ids``, as lists."""
        return (
            _KIND_MEMBERS[self.kind_codes[ids]].tolist(),
            self.keys[ids].tolist(),
            self.values[ids].tolist(),
            self.scan_counts[ids].tolist(),
        )

    @property
    def read_count(self) -> int:
        return int(np.count_nonzero(self.kind_codes == KIND_CODE[OpKind.READ]))

    @property
    def write_count(self) -> int:
        return int(np.count_nonzero(IS_WRITE[self.kind_codes]))

    @property
    def write_ratio(self) -> float:
        if not len(self):
            return 0.0
        return self.write_count / len(self)

    def distinct_keys(self) -> int:
        return len(set(self.keys.tolist()))

    def batches(self, batch_size: int) -> Iterator[IdArray]:
        """Arrival-order batches of op ids (DCART's PCU/SOU overlap unit)."""
        if batch_size <= 0:
            raise WorkloadError(f"batch size must be positive: {batch_size}")
        n = len(self)
        for start in range(0, n, batch_size):
            yield np.arange(start, min(n, start + batch_size), dtype=np.int64)


@dataclass
class Workload:
    """A complete experiment input.

    ``loaded_keys`` are bulk-inserted before timing starts (the tree the
    operations run against); ``operations`` is the timed stream.  The paper
    loads each key set and then issues the read/write mix over it.
    """

    name: str
    key_family: str  # "ipv4" | "string" | "u64"
    loaded_keys: List[bytes]
    operations: OperationStream
    seed: int = 0
    description: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def n_keys(self) -> int:
        return len(self.loaded_keys)

    @property
    def n_ops(self) -> int:
        return len(self.operations)

    def summary(self) -> str:
        return (
            f"{self.name}: {self.n_keys} keys ({self.key_family}), "
            f"{self.n_ops} ops, write ratio "
            f"{self.operations.write_ratio:.2f}"
        )
