"""DurabilityManager: one WAL write per batch, checkpoint state on demand.

``log_batch`` holds a batch's frames and writes them at COMMIT, or at
the crash point.  The WAL it leaves must be the one a writer that
appended and flushed every record on its own would leave: the same
file bytes and the same counters, on the healthy path and at each WAL
crash point.  The reference writer below is that per-record protocol.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

import repro.durability.manager as manager_module
from repro.art.tree import AdaptiveRadixTree
from repro.core.accelerator import DcartAccelerator
from repro.core.config import DCARTConfig
from repro.durability import DurabilityManager
from repro.durability.manager import (
    CRASH_WAL_MID_APPEND,
    CRASH_WAL_PRE_COMMIT,
    CRASH_WAL_TORN_COMMIT,
)
from repro.durability.recover import wal_path
from repro.durability.wal import (
    FILE_HEADER,
    BeginRecord,
    CommitRecord,
    OpRecord,
    encode_record,
    frame,
)
from repro.errors import SimulatedCrash
from repro.model.costs import DEFAULT_DURABILITY_COSTS
from repro.workloads import make_workload
from repro.workloads.ops import OpKind, Operation
from tests.opstreams import batched


class PerRecordLog:
    """One write and one flush per record, billed as it is written."""

    def __init__(self, path):
        self.costs = DEFAULT_DURABILITY_COSTS
        self.file = open(path, "wb")
        self.file.write(FILE_HEADER)
        self.file.flush()
        self.bytes_written = len(FILE_HEADER)
        self.records_written = 0
        self.modelled_seconds = 0.0

    def append(self, record):
        raw = frame(encode_record(record))
        self.file.write(raw)
        self.file.flush()
        self.bytes_written += len(raw)
        self.records_written += 1
        self.modelled_seconds += self.costs.wal_seconds(len(raw))

    def append_torn(self, record, keep):
        self.file.write(frame(encode_record(record))[:keep])
        self.file.flush()
        self.bytes_written += keep

    def sync(self):
        self.modelled_seconds += self.costs.wal_seconds(0, n_fsyncs=1)

    def log_batch(self, batch_index, operations, crash=None):
        """The group ``log_batch`` writes for the rows ``operations``;
        ``crash`` is the diagnostics of the :class:`SimulatedCrash` it
        raised, if it raised one."""
        mutating = [
            OpRecord(op.kind, op.op_id, op.key, op.value)
            for op in operations
            if op.kind is not OpKind.READ
        ]
        if not mutating:
            return
        self.append(BeginRecord(batch_index))
        point = crash["point"] if crash else None
        appended = crash.get("ops_appended") if crash else None
        for record in mutating[:appended]:
            self.append(record)
        if point == CRASH_WAL_MID_APPEND:
            torn = mutating[appended]
            self.append_torn(torn, crash["torn_record_bytes"])
        elif point == CRASH_WAL_TORN_COMMIT:
            commit = CommitRecord(batch_index, len(mutating))
            self.append_torn(commit, crash["torn_record_bytes"])
        elif point is None:
            self.append(CommitRecord(batch_index, len(mutating)))
            self.sync()


def same_log(directory, wal, reference, reference_path):
    with open(wal_path(directory), "rb") as handle:
        written = handle.read()
    with open(reference_path, "rb") as handle:
        assert written == handle.read()
    assert wal.bytes_written == reference.bytes_written
    assert wal.records_written == reference.records_written
    assert wal.modelled_seconds == reference.modelled_seconds


def rows(stream, ids):
    return [stream[i] for i in ids.tolist()]


values = st.one_of(st.none(), st.integers(-(2**70), 2**70), st.text(max_size=6))
batches = st.lists(
    st.lists(
        st.builds(
            Operation,
            op_id=st.just(0),  # renumbered by position in the stream
            kind=st.sampled_from([OpKind.WRITE, OpKind.DELETE, OpKind.READ]),
            key=st.binary(min_size=1, max_size=8),
            value=values,
        ),
        max_size=12,
    ),
    max_size=5,
)


@given(batches=batches)
@settings(max_examples=40, deadline=None)
def test_log_batch_matches_per_record_writes(tmp_path_factory, batches):
    directory = str(tmp_path_factory.mktemp("durable"))
    reference_path = os.path.join(directory, "reference.log")
    manager = DurabilityManager(directory)
    manager.attach(AdaptiveRadixTree())
    reference = PerRecordLog(reference_path)
    stream, batch_ids = batched(batches)
    for batch_index, ids in enumerate(batch_ids):
        manager.log_batch(batch_index, stream, ids)
        reference.log_batch(batch_index, rows(stream, ids))
    same_log(directory, manager.wal, reference, reference_path)
    manager.close()
    reference.file.close()


def ops_for(batch_index, n):
    return [
        Operation(
            op_id=0,  # renumbered by position in the stream
            kind=OpKind.DELETE if i % 4 == 3 else OpKind.WRITE,
            key=bytes([batch_index, i]),
            value=None if i % 4 == 3 else i * 1000 - 7,
        )
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "point", [CRASH_WAL_MID_APPEND, CRASH_WAL_PRE_COMMIT, CRASH_WAL_TORN_COMMIT]
)
@pytest.mark.parametrize("detail", [0, 3, 6, 13])
def test_crash_points_leave_per_record_bytes(tmp_path, point, detail):
    directory = str(tmp_path)
    reference_path = str(tmp_path / "reference.log")
    manager = DurabilityManager(directory)
    manager.attach(AdaptiveRadixTree())
    reference = PerRecordLog(reference_path)
    stream, batch_ids = batched([ops_for(0, 5), ops_for(1, 5), ops_for(2, 9)])
    for batch_index in range(2):
        manager.log_batch(batch_index, stream, batch_ids[batch_index])
        reference.log_batch(batch_index, rows(stream, batch_ids[batch_index]))
    manager.arm_crash(point, detail)
    with pytest.raises(SimulatedCrash) as crash:
        manager.log_batch(2, stream, batch_ids[2])
    assert crash.value.diagnostics["point"] == point
    reference.log_batch(
        2, rows(stream, batch_ids[2]), crash=crash.value.diagnostics
    )
    same_log(directory, manager.wal, reference, reference_path)
    manager.close()
    reference.file.close()


@pytest.mark.parametrize("checkpoint_every", [1, 2, 3, 7])
def test_accelerator_state_read_only_for_written_checkpoints(
    tmp_path, monkeypatch, checkpoint_every
):
    calls = []

    def counting_state(shortcuts, tables):
        calls.append(1)
        return real_state(shortcuts, tables)

    real_state = manager_module.accelerator_state
    monkeypatch.setattr(manager_module, "accelerator_state", counting_state)
    n_batches, batch_size = 7, 256
    workload = make_workload(
        "RS", n_keys=600, n_ops=n_batches * batch_size, write_ratio=0.5, seed=3
    )
    manager = DurabilityManager(str(tmp_path), checkpoint_every=checkpoint_every)
    DcartAccelerator(
        config=DCARTConfig(batch_size=batch_size), durability=manager
    ).run(workload)
    assert manager.batches_logged == n_batches
    assert len(calls) == n_batches // checkpoint_every
    # The base checkpoint plus one per due batch.
    assert manager.checkpoints_written == 1 + n_batches // checkpoint_every
