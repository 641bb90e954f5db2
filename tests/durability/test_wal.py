"""WAL unit tests: framing, value codec, batch protocol, torn tails."""

import struct
import zlib

import numpy as np
import pytest

from repro.durability.wal import (
    FILE_HEADER,
    BeginRecord,
    CommitRecord,
    OpRecord,
    WriteAheadLog,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    frame,
    loggable_ops,
    op_record,
    scan_wal,
)
from repro.errors import SimulationError
from repro.workloads.ops import Operation, OperationStream, OpKind


def write_op(op_id, key, value=None):
    return OpRecord(OpKind.WRITE, op_id, key, value)


def delete_op(op_id, key):
    return OpRecord(OpKind.DELETE, op_id, key)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**70, -(2**70), 3.25, b"", b"\x00raw",
         "", "héllo", "x" * 300],
    )
    def test_round_trip(self, value):
        raw = encode_value(value)
        decoded, offset = decode_value(raw, 0)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(raw)

    def test_unencodable_type_raises(self):
        with pytest.raises(SimulationError):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(SimulationError):
            decode_value(bytes([250]), 0)


class TestRecordCodec:
    @pytest.mark.parametrize(
        "record",
        [
            BeginRecord(0),
            BeginRecord(12345),
            OpRecord(OpKind.WRITE, 7, b"\x01\x02", "payload"),
            OpRecord(OpKind.DELETE, 2**40, b"k", None),
            CommitRecord(3, 199),
        ],
    )
    def test_round_trip(self, record):
        assert decode_record(encode_record(record)) == record

    def test_frame_carries_crc(self):
        raw = frame(encode_record(BeginRecord(1)))
        length, crc = struct.unpack_from("<II", raw, 0)
        assert length == len(raw) - 8
        assert crc == zlib.crc32(raw[8:])

    def test_op_record_rejects_reads(self):
        stream = OperationStream([
            Operation(0, OpKind.READ, b"k"),
            Operation(1, OpKind.WRITE, b"k", value=5),
            Operation(2, OpKind.DELETE, b"k"),
            Operation(3, OpKind.SCAN, b"k", scan_count=2),
        ])
        with pytest.raises(SimulationError):
            op_record(stream, 0)
        with pytest.raises(SimulationError):
            encode_record(OpRecord(OpKind.READ, 0, b"k"))
        assert op_record(stream, 1) == write_op(1, b"k", 5)
        assert op_record(stream, 2) == delete_op(2, b"k")
        assert loggable_ops(stream, np.arange(4)).tolist() == [1, 2]


class TestBatchProtocol:
    def test_committed_batches_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        ops = [write_op(0, b"a", 1), delete_op(1, b"b"), write_op(2, b"c", "v")]
        with WriteAheadLog(path) as wal:
            wal.begin_batch(0)
            for op in ops:
                wal.log_op(op)
            wal.commit_batch(len(ops))
            wal.begin_batch(1)
            wal.log_op(write_op(3, b"d", None))
            wal.commit_batch(1)

        scan = scan_wal(path)
        assert not scan.torn
        assert sorted(scan.committed) == [0, 1]
        assert scan.committed_through == 1
        assert [r.key for r in scan.committed[0]] == [b"a", b"b", b"c"]
        assert scan.committed[0][0].value == 1
        assert scan.committed[0][1].op_kind is OpKind.DELETE
        assert list(scan.committed_ops_after(0)) == [
            (1, scan.committed[1][0])
        ]

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.begin_batch(0)
            wal.log_op(write_op(0, b"a", 1))
            wal.commit_batch(1)
        with WriteAheadLog(path) as wal:
            wal.begin_batch(1)
            wal.log_op(write_op(1, b"b", 2))
            wal.commit_batch(1)
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.count(FILE_HEADER[:4]) == 1  # one magic, not two
        scan = scan_wal(path)
        assert sorted(scan.committed) == [0, 1]

    def test_nesting_and_stray_calls_raise(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        with pytest.raises(SimulationError):
            wal.log_op(write_op(0, b"a"))
        with pytest.raises(SimulationError):
            wal.commit_batch(0)
        wal.begin_batch(0)
        with pytest.raises(SimulationError):
            wal.begin_batch(1)
        wal.abandon_batch()
        wal.close()

    def test_costs_accumulate(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.begin_batch(0)
        wal.log_op(write_op(0, b"a", b"x" * 100))
        wal.commit_batch(1)
        assert wal.records_written == 3
        assert wal.fsyncs == 1
        assert wal.modelled_seconds > 0.0
        wal.close()


class TestTornDetection:
    def make_wal(self, tmp_path, n_batches=3):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        for batch in range(n_batches):
            wal.begin_batch(batch)
            wal.log_op(write_op(batch, bytes([batch]), batch))
            wal.commit_batch(1)
        return path, wal

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.log"))
        assert not scan.torn
        assert scan.committed == {}
        assert scan.committed_through == -1

    def test_torn_record_ends_scan_keeps_prefix(self, tmp_path):
        path, wal = self.make_wal(tmp_path)
        wal.begin_batch(3)
        wal.append_torn(write_op(9, b"torn", "x"), keep_bytes=5)
        wal.close()
        scan = scan_wal(path)
        assert scan.torn
        assert scan.torn_reason in ("short frame header", "record overruns file")
        assert sorted(scan.committed) == [0, 1, 2]
        assert 3 in scan.uncommitted

    def test_bitflip_is_a_crc_mismatch(self, tmp_path):
        path, wal = self.make_wal(tmp_path)
        wal.close()
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        # Flip one payload byte inside the second batch's group.
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        scan = scan_wal(path)
        assert scan.torn
        assert scan.torn_reason == "CRC mismatch"
        assert 0 in scan.committed  # the prefix before the flip survives
        assert scan.committed_through < 2

    def test_uncommitted_group_is_reported_not_committed(self, tmp_path):
        path, wal = self.make_wal(tmp_path, n_batches=1)
        wal.begin_batch(1)
        wal.log_op(write_op(5, b"u", 1))
        wal.close()  # no COMMIT
        scan = scan_wal(path)
        assert not scan.torn
        assert sorted(scan.committed) == [0]
        assert scan.uncommitted == [1]
        assert scan.uncommitted_ops == 1

    def test_commit_mismatch_ends_scan(self, tmp_path):
        path, wal = self.make_wal(tmp_path, n_batches=1)
        wal.begin_batch(1)
        wal.log_op(write_op(5, b"u", 1))
        wal.append(CommitRecord(1, 99))  # lies about the op count
        wal.close()
        scan = scan_wal(path)
        assert scan.torn
        assert "commit mismatch" in scan.torn_reason
        assert sorted(scan.committed) == [0]

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 16)
        scan = scan_wal(path)
        assert scan.torn
        assert scan.torn_reason == "bad file magic"
        assert scan.committed == {}
