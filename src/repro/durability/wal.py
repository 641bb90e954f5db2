"""Write-ahead log: append-only, CRC-framed, batch-delimited.

DCART's batch-overlap execution gives the reproduction natural
consistency points: a combined batch either executes fully or not at
all, so the WAL groups its records per batch between BEGIN and COMMIT
markers.  Recovery replays *committed* batches only; an interrupted
batch (BEGIN without COMMIT, or a record torn mid-write) is discarded —
the same contract a transactional store honours.

On-disk format (little-endian)::

    file   := header record*
    header := MAGIC "DWAL" | u16 version | u16 reserved
    record := u32 payload_len | u32 crc32(payload) | payload
    payload:= u8 kind | kind-specific fields

    BEGIN  (kind 1) := u32 batch_index
    OP     (kind 2) := u8 op_kind | u64 op_id | u16 key_len | key | value
    COMMIT (kind 3) := u32 batch_index | u32 n_ops

Values use a small tagged codec (None/bool/int/float/bytes/str) so the
log is self-describing without pickle.  Torn-write detection is purely
local: a record whose header is short, whose length overruns the file,
or whose CRC mismatches ends the scan — everything before it is intact
(appends never rewrite earlier bytes), everything from it on is the torn
tail.

Every record is billed through
:class:`~repro.model.costs.DurabilityCosts`; a COMMIT is an fsync point
(the batch's durability barrier), modelled — and optionally executed
with a real ``os.fsync`` — by :meth:`WriteAheadLog.sync`.  The writer
holds a batch's frames in memory and writes the whole group with one
call at COMMIT; :func:`encode_batch_frames` produces the same bytes for
the cluster's replication link.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.log import get_logger
from repro.model.costs import DEFAULT_DURABILITY_COSTS, DurabilityCosts
from repro.workloads.ops import IS_WRITE, OP_KINDS, IdArray, OperationStream, OpKind

LOG = get_logger("durability")

WAL_MAGIC = b"DWAL"
WAL_VERSION = 1
FILE_HEADER = WAL_MAGIC + struct.pack("<HH", WAL_VERSION, 0)

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_BEGIN = struct.Struct("<BI")  # kind, batch_index
_OP_HEADER = struct.Struct("<BBQH")  # kind, op code, op_id, key_len
_COMMIT = struct.Struct("<BII")  # kind, batch_index, n_ops

REC_BEGIN = 1
REC_OP = 2
REC_COMMIT = 3

#: WAL op encoding of the mutating :class:`OpKind` members.
_OP_TO_CODE = {OpKind.WRITE: 1, OpKind.DELETE: 2}
_CODE_TO_OP = {code: kind for kind, code in _OP_TO_CODE.items()}
#: A stream's kind code -> its WAL op code; 0 for the kinds not logged.
_WAL_CODE_OF = tuple(_OP_TO_CODE.get(kind, 0) for kind in OP_KINDS)

# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------

_V_NONE, _V_FALSE, _V_TRUE, _V_INT, _V_FLOAT, _V_BYTES, _V_STR = range(7)

_NONE_BYTES = bytes([_V_NONE])
_FALSE_BYTES = bytes([_V_FALSE])
_TRUE_BYTES = bytes([_V_TRUE])
_INT_HEADER = struct.Struct("<BH")  # int tag, u16 length of the big-endian bytes


def _encode_int(value: int) -> bytes:
    """The tagged wire form of an ``int`` value."""
    raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    return _INT_HEADER.pack(_V_INT, len(raw)) + raw


def encode_value(value: object) -> bytes:
    """Encode one op payload value into the tagged wire form."""
    if type(value) is int:  # the common payload; bools take their own tags
        return _encode_int(value)
    if value is None:
        return _NONE_BYTES
    if value is False:
        return _FALSE_BYTES
    if value is True:
        return _TRUE_BYTES
    if isinstance(value, int):
        return _encode_int(value)
    if isinstance(value, float):
        return bytes([_V_FLOAT]) + struct.pack("<d", value)
    if isinstance(value, (bytes, bytearray)):
        return bytes([_V_BYTES]) + struct.pack("<I", len(value)) + bytes(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([_V_STR]) + struct.pack("<I", len(raw)) + raw
    raise SimulationError(
        f"WAL cannot encode value of type {type(value).__name__}; "
        "durable workloads carry None/bool/int/float/bytes/str payloads"
    )


def decode_value(buf: bytes, offset: int) -> Tuple[object, int]:
    """Decode one tagged value; returns ``(value, next_offset)``.

    A value cut short by the end of ``buf`` decodes short; callers check
    ``next_offset`` against the record length.
    """
    tag = buf[offset]
    offset += 1
    if tag == _V_NONE:
        return None, offset
    if tag == _V_FALSE:
        return False, offset
    if tag == _V_TRUE:
        return True, offset
    if tag == _V_INT:
        (length,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        raw = buf[offset : offset + length]
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == _V_FLOAT:
        (value,) = struct.unpack_from("<d", buf, offset)
        return value, offset + 8
    if tag in (_V_BYTES, _V_STR):
        (length,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        raw = buf[offset : offset + length]
        return (raw if tag == _V_BYTES else raw.decode("utf-8")), offset + length
    raise SimulationError(f"unknown WAL value tag {tag}")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeginRecord:
    """Start of one batch's record group."""

    batch: int


@dataclass(frozen=True)
class OpRecord:
    """One mutating operation inside a batch group."""

    op_kind: OpKind
    op_id: int
    key: bytes
    value: object = None

    def apply(self, tree) -> None:
        """Replay this op against ``tree`` (upsert/delete semantics)."""
        from repro.errors import KeyNotFoundError

        if self.op_kind is OpKind.WRITE:
            tree.upsert(self.key, self.value)
        else:
            try:
                tree.delete(self.key)
            except KeyNotFoundError:
                pass  # deleting an absent key is a no-op, as in the run


@dataclass(frozen=True)
class CommitRecord:
    """Durability barrier: the batch's ops are all on disk before this."""

    batch: int
    n_ops: int


WalRecord = Union[BeginRecord, OpRecord, CommitRecord]


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length+CRC frame."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(record: WalRecord) -> bytes:
    """Serialise one record payload (unframed)."""
    if isinstance(record, BeginRecord):
        return _BEGIN.pack(REC_BEGIN, record.batch)
    if isinstance(record, OpRecord):
        code = _OP_TO_CODE.get(record.op_kind)
        if code is None:
            raise SimulationError(f"op kind {record.op_kind} is not WAL-loggable")
        return (
            _OP_HEADER.pack(REC_OP, code, record.op_id, len(record.key))
            + record.key
            + encode_value(record.value)
        )
    if isinstance(record, CommitRecord):
        return _COMMIT.pack(REC_COMMIT, record.batch, record.n_ops)
    raise SimulationError(f"unknown WAL record {record!r}")


def decode_record(payload: bytes) -> WalRecord:
    """Parse one framed record's payload back into its dataclass.

    Raises :class:`SimulationError` on any payload that is not exactly
    one well-formed record, whatever its CRC says.
    """
    if not payload:
        raise SimulationError("empty WAL record payload")
    kind = payload[0]
    try:
        if kind == REC_BEGIN:
            _, batch = _BEGIN.unpack(payload)
            return BeginRecord(batch)
        if kind == REC_OP:
            _, code, op_id, key_len = _OP_HEADER.unpack_from(payload)
            if code not in _CODE_TO_OP:
                raise SimulationError(f"unknown WAL op code {code}")
            offset = _OP_HEADER.size
            key = payload[offset : offset + key_len]
            value, end = decode_value(payload, offset + key_len)
            if end != len(payload):
                raise SimulationError(
                    f"WAL op record is {len(payload)} bytes, its fields {end}"
                )
            return OpRecord(_CODE_TO_OP[code], op_id, key, value)
        if kind == REC_COMMIT:
            _, batch, n_ops = _COMMIT.unpack(payload)
            return CommitRecord(batch, n_ops)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise SimulationError(f"malformed WAL record (kind {kind}): {exc}") from exc
    raise SimulationError(f"unknown WAL record kind {kind}")


def op_record(stream: OperationStream, op_id: int) -> OpRecord:
    """The WAL form of the stream's op ``op_id`` (mutating kinds only)."""
    kind = OP_KINDS[stream.kind_codes[op_id]]
    if not kind.is_write:
        raise SimulationError(f"op kind {kind} is not WAL-loggable")
    return OpRecord(kind, op_id, bytes(stream.keys[op_id]), stream.values[op_id])


def loggable_ops(stream: OperationStream, ids: IdArray) -> IdArray:
    """The ids of ``ids`` that a WAL group logs (the mutating ops), in order."""
    return ids[IS_WRITE[stream.kind_codes[ids]]]


def frame_ops(
    out: bytearray,
    sizes: List[int],
    stream: OperationStream,
    ids: IdArray,
    skip_unloggable: bool = False,
) -> None:
    """Append one framed OP record per op ``ids`` to ``out``, its size to ``sizes``.

    The group encoder both the writer and :func:`encode_batch_frames`
    use; each frame is byte-identical to ``frame(encode_record(
    op_record(stream, op_id)))``.  A non-mutating op is passed over when
    ``skip_unloggable`` is set and raises :class:`SimulationError`
    otherwise, as an unencodable value does; the frames of the ops
    before it are already in ``out``.
    """
    pack_frame = _FRAME.pack
    pack_header = _OP_HEADER.pack
    crc32 = zlib.crc32
    wal_codes = _WAL_CODE_OF
    for op_id, kind_code, key, value in zip(
        ids.tolist(),
        stream.kind_codes[ids].tolist(),
        stream.keys[ids].tolist(),
        stream.values[ids].tolist(),
    ):
        code = wal_codes[kind_code]
        if not code:
            if skip_unloggable:
                continue
            raise SimulationError(
                f"op kind {OP_KINDS[kind_code]} is not WAL-loggable"
            )
        payload = pack_header(REC_OP, code, op_id, len(key)) + key + encode_value(value)
        size = len(payload)
        out += pack_frame(size, crc32(payload))
        out += payload
        sizes.append(_FRAME.size + size)


def encode_batch_frames(
    batch_index: int, stream: OperationStream, ids: IdArray
) -> bytes:
    """The complete framed record group of the batch ``ids``, as raw log bytes.

    ``BEGIN / op* / COMMIT`` with every record length+CRC framed —
    byte-identical to what :class:`WriteAheadLog` writes for the batch.
    The cluster replication link ships exactly these bytes, so a
    replica's catch-up replay decodes the same wire format recovery
    does.  Non-mutating ops are skipped.
    """
    sizes: List[int] = []
    out = bytearray(frame(_BEGIN.pack(REC_BEGIN, batch_index)))
    frame_ops(out, sizes, stream, ids, skip_unloggable=True)
    out += frame(_COMMIT.pack(REC_COMMIT, batch_index, len(sizes)))
    return bytes(out)


def decode_frames(data: bytes, offset: int = 0) -> List[WalRecord]:
    """Strict decode of a framed record stream held in memory.

    Unlike :func:`scan_wal` — which tolerates a torn tail because a
    crash legitimately tears the on-disk log — an in-memory replication
    stream has no torn-write failure mode, so any framing or CRC damage
    here is an invariant violation and raises
    :class:`~repro.errors.SimulationError`.
    """
    records: List[WalRecord] = []
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            raise SimulationError(
                f"replication stream truncated at byte {offset}"
            )
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > len(data):
            raise SimulationError(
                f"replication stream record overruns buffer at byte {offset}"
            )
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            raise SimulationError(
                f"replication stream CRC mismatch at byte {offset}"
            )
        records.append(decode_record(payload))
        offset = start + length
    return records


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only log writer with fsync-point cost accounting.

    One write per batch: between :meth:`begin_batch` and
    :meth:`commit_batch` the writer holds the batch's frames in memory,
    and COMMIT writes BEGIN, the ops and COMMIT with one ``write`` and
    one flush.  A record appended outside a batch is written at once.
    The crash-path calls — :meth:`append_torn`, :meth:`abandon_batch`,
    :meth:`close` — write the held frames first and flush, so the chaos
    harness's crash points see exactly the bytes an append-and-flush
    per record would have left.  The counters (``bytes_written``,
    ``records_written``, ``modelled_seconds``) follow the file: a frame
    is billed, in record order, when it is written.  *Durability*
    points (what a real device guarantees after power loss) are only
    the explicit :meth:`sync` calls, billed through the cost model and
    optionally executed with ``os.fsync``.
    """

    def __init__(
        self,
        path: str,
        costs: DurabilityCosts = DEFAULT_DURABILITY_COSTS,
        real_fsync: bool = False,
    ):
        self.path = path
        self.costs = costs
        self.real_fsync = real_fsync
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._file = open(path, "ab")
        if fresh:
            self._file.write(FILE_HEADER)
            self._file.flush()
        self.bytes_written = len(FILE_HEADER) if fresh else 0
        self.records_written = 0
        self.fsyncs = 0
        self.modelled_seconds = 0.0
        self._open_batch: Optional[int] = None
        #: Frames of the open batch not yet written, and their sizes.
        self._held = bytearray()
        self._held_sizes: List[int] = []

    # -- raw appends ---------------------------------------------------

    def append(self, record: WalRecord) -> int:
        """Frame and append one record; returns its framed size."""
        raw = frame(encode_record(record))
        self._held += raw
        self._held_sizes.append(len(raw))
        if self._open_batch is None:
            self._write_held()
        return len(raw)

    def append_torn(self, record: WalRecord, keep_bytes: int) -> int:
        """Crash-injection hook: write only a prefix of the framed record.

        Models the power cut landing mid-sector: the record's first
        ``keep_bytes`` bytes reach the platter, the rest never do.  The
        scanner must detect the tail via length/CRC and skip it.
        """
        self._write_held()
        raw = frame(encode_record(record))
        keep = max(1, min(keep_bytes, len(raw) - 1))
        self._file.write(raw[:keep])
        self._file.flush()
        self.bytes_written += keep
        return keep

    def _write_held(self) -> None:
        """Write the held frames with one call and flush.

        Each frame is billed separately, in record order, so the float
        sum is the one a per-record append would have made.
        """
        if self._held_sizes:
            self._file.write(self._held)
            seconds = self.modelled_seconds
            for size in self._held_sizes:
                seconds += self.costs.wal_seconds(size)
            self.modelled_seconds = seconds
            self.bytes_written += len(self._held)
            self.records_written += len(self._held_sizes)
            self._held = bytearray()
            self._held_sizes = []
        self._file.flush()

    def sync(self) -> None:
        """Write the held frames and cross an fsync point (durability barrier)."""
        self._write_held()
        if self.real_fsync:
            os.fsync(self._file.fileno())
        self.fsyncs += 1
        self.modelled_seconds += self.costs.wal_seconds(0, n_fsyncs=1)

    # -- batch protocol ------------------------------------------------

    def begin_batch(self, batch_index: int) -> None:
        if self._open_batch is not None:
            raise SimulationError(
                f"batch {self._open_batch} still open; WAL batches do not nest"
            )
        self._open_batch = batch_index
        self.append(BeginRecord(batch_index))

    def log_op(self, record: OpRecord) -> None:
        """Add one OP record to the open batch."""
        if self._open_batch is None:
            raise SimulationError("log_op outside a WAL batch")
        self.append(record)

    def log_ops(self, stream: OperationStream, ids: IdArray) -> None:
        """Add one OP record per (mutating) op ``ids`` to the open batch."""
        if self._open_batch is None:
            raise SimulationError("log_op outside a WAL batch")
        frame_ops(self._held, self._held_sizes, stream, ids)

    def commit_batch(self, n_ops: int) -> None:
        """Append COMMIT and cross the batch's fsync point."""
        if self._open_batch is None:
            raise SimulationError("commit without an open WAL batch")
        self.append(CommitRecord(self._open_batch, n_ops))
        self.sync()
        self._open_batch = None

    def abandon_batch(self) -> None:
        """Forget the open batch without committing (crash paths).

        The frames already appended reach the file, as they would have
        with a write per record; recovery discards the group.
        """
        self._write_held()
        self._open_batch = None

    def close(self) -> None:
        if not self._file.closed:
            self._write_held()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# scanner
# ---------------------------------------------------------------------------


@dataclass
class WalScan:
    """Everything a WAL scan established, torn tail included."""

    path: str
    records: List[WalRecord] = field(default_factory=list)
    #: Ops of every *committed* batch, keyed by batch index.
    committed: Dict[int, List[OpRecord]] = field(default_factory=dict)
    #: Batch indices that began but never committed (discarded on replay).
    uncommitted: List[int] = field(default_factory=list)
    uncommitted_ops: int = 0
    torn: bool = False
    torn_offset: Optional[int] = None
    torn_reason: str = ""
    bytes_scanned: int = 0

    @property
    def committed_through(self) -> int:
        """Highest committed batch index (``-1`` for an empty log)."""
        return max(self.committed) if self.committed else -1

    def committed_ops_after(self, after_batch: int) -> Iterator[Tuple[int, OpRecord]]:
        """Ops of committed batches strictly after ``after_batch``, in order."""
        for batch in sorted(self.committed):
            if batch <= after_batch:
                continue
            for op in self.committed[batch]:
                yield batch, op

    def summary(self) -> str:
        tail = (
            f", torn tail at byte {self.torn_offset} ({self.torn_reason})"
            if self.torn
            else ""
        )
        return (
            f"WAL {self.path}: {len(self.records)} records, "
            f"{len(self.committed)} committed batches "
            f"(through {self.committed_through}), "
            f"{len(self.uncommitted)} uncommitted{tail}"
        )


def scan_wal(path: str) -> WalScan:
    """Read a WAL, stopping cleanly at the first torn/corrupt record.

    Never raises on bad bytes: appends cannot damage earlier records, so
    everything before the first bad frame is trusted and everything from
    it on is reported as the torn tail.  A missing file scans as empty.
    """
    scan = WalScan(path=path)
    if not os.path.exists(path):
        return scan
    with open(path, "rb") as handle:
        data = handle.read()
    scan.bytes_scanned = len(data)

    offset = len(FILE_HEADER)
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        scan.torn = True
        scan.torn_offset = 0
        scan.torn_reason = "bad file magic"
        return scan

    open_batch: Optional[int] = None
    open_ops: List[OpRecord] = []
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = "short frame header"
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > len(data):
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = "record overruns file"
            break
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = "CRC mismatch"
            break
        try:
            record = decode_record(payload)
        except SimulationError as exc:
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = f"undecodable record: {exc}"
            break
        offset = start + length
        scan.records.append(record)

        if isinstance(record, BeginRecord):
            if open_batch is not None:
                # A BEGIN inside an open group: the previous group never
                # committed (crash between batches); discard it.
                scan.uncommitted.append(open_batch)
                scan.uncommitted_ops += len(open_ops)
            open_batch = record.batch
            open_ops = []
        elif isinstance(record, OpRecord):
            if open_batch is None:
                scan.torn = True
                scan.torn_offset = offset
                scan.torn_reason = "op record outside a batch group"
                break
            open_ops.append(record)
        elif isinstance(record, CommitRecord):
            if open_batch != record.batch or len(open_ops) != record.n_ops:
                scan.torn = True
                scan.torn_offset = offset
                scan.torn_reason = (
                    f"commit mismatch: group batch={open_batch} "
                    f"ops={len(open_ops)} vs commit batch={record.batch} "
                    f"n_ops={record.n_ops}"
                )
                break
            scan.committed[record.batch] = open_ops
            open_batch = None
            open_ops = []

    if open_batch is not None and not scan.torn:
        scan.uncommitted.append(open_batch)
        scan.uncommitted_ops += len(open_ops)
    if scan.torn and open_batch is not None:
        scan.uncommitted.append(open_batch)
        scan.uncommitted_ops += len(open_ops)
    if scan.torn:
        LOG.warning(
            "WAL %s: torn tail at byte %s (%s); %d committed batches kept",
            path, scan.torn_offset, scan.torn_reason, len(scan.committed),
        )
    return scan
