"""Property-based durability test (style of tests/art/test_tree_properties.py).

Property: for an *arbitrary* sequence of mutating operations WAL-logged
in batches, a crash at an *arbitrary byte offset* of the log loses at
most the uncommitted tail — recovery rebuilds exactly the state of every
batch whose COMMIT record fully reached disk, and nothing of any later
batch.  The reference is computed independently of the scanner, from the
recorded commit-end offsets.
"""

import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.durability import WriteAheadLog, recover, scan_wal
from repro.durability.recover import wal_path
from repro.durability.wal import FILE_HEADER
from repro.errors import RecoveryError
from repro.workloads.ops import Operation, OperationStream, OpKind

BATCH_SIZE = 5

# Skewed small key universe to force overwrites and deletes of live keys.
op_specs = st.lists(
    st.tuples(
        st.booleans(),  # True = WRITE, False = DELETE
        st.integers(min_value=0, max_value=40),
        st.one_of(st.none(), st.integers(-1000, 1000), st.text(max_size=6)),
    ),
    max_size=60,
)


def to_operation(op_id, spec):
    is_write, key_int, value = spec
    return Operation(
        op_id=op_id,
        kind=OpKind.WRITE if is_write else OpKind.DELETE,
        key=key_int.to_bytes(2, "big"),
        value=value if is_write else None,
    )


def apply_reference(reference, op):
    if op.kind is OpKind.WRITE:
        reference[op.key] = op.value
    else:
        reference.pop(op.key, None)


@given(specs=op_specs, fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_crash_at_any_wal_offset_recovers_committed_prefix(specs, fraction):
    ops = [to_operation(i, spec) for i, spec in enumerate(specs)]
    batches = [ops[i : i + BATCH_SIZE] for i in range(0, len(ops), BATCH_SIZE)]
    stream = OperationStream(ops)

    with tempfile.TemporaryDirectory(prefix="dcart-prop-") as directory:
        path = wal_path(directory)
        commit_end = []  # file size right after each batch's COMMIT
        with WriteAheadLog(path) as wal:
            for batch_index, batch in enumerate(batches):
                wal.begin_batch(batch_index)
                start = batch_index * BATCH_SIZE
                wal.log_ops(stream, np.arange(start, start + len(batch)))
                wal.commit_batch(len(batch))
                commit_end.append(wal.bytes_written)

        # Record every frame boundary of the intact log (for the torn
        # oracle: a cut anywhere else must be flagged as torn).
        with open(path, "rb") as handle:
            data = handle.read()
        boundaries = {len(FILE_HEADER)}
        offset = len(FILE_HEADER)
        while offset < len(data):
            (length,) = struct.unpack_from("<I", data, offset)
            offset += 8 + length
            boundaries.add(offset)

        # The crash: truncate the log at an arbitrary byte offset.
        size = len(data)
        cut = max(len(FILE_HEADER), min(size, int(round(fraction * size))))
        with open(path, "r+b") as handle:
            handle.truncate(cut)

        # Independent oracle: a batch survives iff its COMMIT record
        # fully precedes the cut.
        survivors = [b for b, end in enumerate(commit_end) if end <= cut]
        reference = {}
        for batch_index in survivors:
            for op in batches[batch_index]:
                apply_reference(reference, op)

        scan = scan_wal(path)
        assert sorted(scan.committed) == survivors
        assert scan.torn == (cut not in boundaries)

        if not scan.records:
            # Nothing at all survived (and there is no checkpoint).
            with pytest.raises(RecoveryError):
                recover(directory)
            return

        result = recover(directory)
        assert result.validation.ok
        assert dict(result.tree.items()) == reference
        expected_through = survivors[-1] if survivors else -1
        assert result.committed_through == expected_through
