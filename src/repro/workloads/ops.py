"""Operation and workload containers.

An *operation* is what the paper's engines process: read or write a
key-value item over the ART (§II-A).  Writes that address a key already in
the tree are value updates; writes that address a new key are structural
inserts — both are ``WRITE`` here, and the engines resolve which work they
imply, exactly as an upsert-style store would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

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


@dataclass(slots=True)
class Operation:
    """One key-value operation.

    ``value`` is the payload for writes; ``scan_count`` bounds a range
    scan.  ``op_id`` preserves arrival order, which the concurrency
    simulators use to form waves/batches.

    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which made building a 500k-op stream about
    twice as slow.  Nothing assigns to an operation's fields or hashes
    one (an unfrozen dataclass with ``__eq__`` has no ``__hash__``), so
    treat an ``Operation`` as a value all the same.
    """

    op_id: int
    kind: OpKind
    key: bytes
    value: Optional[object] = None
    scan_count: int = 0


class OperationStream:
    """An ordered sequence of operations with summary accessors.

    A list passed in is adopted without copying (a 1M-op workload should
    not exist twice in memory); the caller must not mutate it afterwards.
    Pass ``copy=True`` to force a private copy, e.g. when the list is
    reused as a scratch buffer.  Non-list sequences and iterators are
    always materialised into a fresh list.
    """

    def __init__(self, operations: Sequence[Operation], *, copy: bool = False):
        if isinstance(operations, list) and not copy:
            self._operations: List[Operation] = operations
        else:
            self._operations = list(operations)

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def __getitem__(self, index):
        return self._operations[index]

    @property
    def read_count(self) -> int:
        return sum(1 for op in self._operations if op.kind is OpKind.READ)

    @property
    def write_count(self) -> int:
        return sum(1 for op in self._operations if op.kind.is_write)

    @property
    def write_ratio(self) -> float:
        if not self._operations:
            return 0.0
        return self.write_count / len(self._operations)

    def distinct_keys(self) -> int:
        return len({op.key for op in self._operations})

    def batches(self, batch_size: int) -> Iterator[List[Operation]]:
        """Split into arrival-order batches (DCART's PCU/SOU overlap unit)."""
        if batch_size <= 0:
            raise WorkloadError(f"batch size must be positive: {batch_size}")
        for start in range(0, len(self._operations), batch_size):
            yield self._operations[start : start + batch_size]

    def head(self, count: int) -> "OperationStream":
        """The first ``count`` operations as a new stream."""
        return OperationStream(self._operations[:count])


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
