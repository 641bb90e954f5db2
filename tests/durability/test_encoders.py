"""The batch encoders against today's per-record framing.

The WAL group encoder (:func:`frame_ops`, behind
:func:`encode_batch_frames` and :meth:`WriteAheadLog.log_ops`) and the
one-pass checkpoint encoder (:func:`build_payload`) must produce exactly
the bytes of framing one record at a time.  The reference codec below is
that per-record framing, kept here independent of the library's codec.
The decoders are fuzzed too: damaged input may only ever raise
:class:`SimulationError`.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.art.tree import AdaptiveRadixTree
from repro.durability.checkpoint import build_payload, parse_payload
from repro.durability.wal import (
    REC_OP,
    WriteAheadLog,
    decode_frames,
    encode_batch_frames,
    frame,
)
from repro.errors import SimulationError
from repro.workloads.ops import Operation, OperationStream, OpKind
from tests.opstreams import all_ids, stream_of

# ---------------------------------------------------------------------------
# reference: one record at a time
# ---------------------------------------------------------------------------


def ref_frame(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def ref_value(value):
    if value is None:
        return bytes([0])
    if value is False:
        return bytes([1])
    if value is True:
        return bytes([2])
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        return bytes([3]) + struct.pack("<H", len(raw)) + raw
    if isinstance(value, float):
        return bytes([4]) + struct.pack("<d", value)
    if isinstance(value, bytes):
        return bytes([5]) + struct.pack("<I", len(value)) + value
    raw = value.encode("utf-8")
    return bytes([6]) + struct.pack("<I", len(raw)) + raw


def ref_begin(batch):
    return ref_frame(bytes([1]) + struct.pack("<I", batch))


def ref_op(op):
    code = {OpKind.WRITE: 1, OpKind.DELETE: 2}[op.kind]
    return ref_frame(
        bytes([2, code])
        + struct.pack("<QH", op.op_id, len(op.key))
        + op.key
        + ref_value(op.value)
    )


def ref_commit(batch, n_ops):
    return ref_frame(bytes([3]) + struct.pack("<II", batch, n_ops))


def ref_group(batch, operations):
    mutating = [op for op in operations if op.kind in (OpKind.WRITE, OpKind.DELETE)]
    return (
        ref_begin(batch)
        + b"".join(ref_op(op) for op in mutating)
        + ref_commit(batch, len(mutating))
    )


def ref_item(key, value):
    return ref_frame(bytes([11]) + struct.pack("<H", len(key)) + key + ref_value(value))


def ref_payload(mapping, batch_index, accel_state):
    header = ref_frame(bytes([10]) + struct.pack("<IqQ", 1, batch_index, len(mapping)))
    items = b"".join(ref_item(key, mapping[key]) for key in sorted(mapping))
    accel = json.dumps(accel_state, sort_keys=True).encode("utf-8")
    return header + items + ref_frame(bytes([12]) + accel)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=-300, max_value=300),
    st.floats(allow_nan=False),
    st.binary(max_size=24),
    st.text(max_size=12),
)
# Fixed-width keys are prefix-free, as the tree requires.
tree_keys = st.binary(min_size=3, max_size=3)
operations = st.lists(
    st.builds(
        Operation,
        op_id=st.just(0),  # renumbered by position in the stream
        kind=st.sampled_from([OpKind.WRITE, OpKind.DELETE, OpKind.READ]),
        key=st.binary(min_size=1, max_size=16),
        value=values,
    ),
    max_size=40,
)
ACCEL = {"shortcut_entries": [["00ff", 4096, 4160]], "bucket_spilled_bytes": 3}


def tree_of(mapping):
    tree = AdaptiveRadixTree()
    for key, value in mapping.items():
        tree.upsert(key, value)
    return tree


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------


@given(mapping=st.dictionaries(tree_keys, values, max_size=80),
       n_dense=st.integers(min_value=0, max_value=300),
       batch_index=st.integers(min_value=-1, max_value=2**31))
@settings(max_examples=80, deadline=None)
def test_build_payload_matches_per_item_framing(mapping, n_dense, batch_index):
    # A dense run of keys fills one node past 48 children: N48s and
    # N256s are walked too.
    mapping = {**{i.to_bytes(3, "big"): -i for i in range(n_dense)}, **mapping}
    payload = build_payload(tree_of(mapping), batch_index, ACCEL)
    assert payload == ref_payload(mapping, batch_index, ACCEL)
    assert build_payload(tree_of(mapping), batch_index) == ref_payload(
        mapping, batch_index, {}
    )


@given(batch_index=st.integers(min_value=0, max_value=2**32 - 1), ops=operations,
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_encode_batch_frames_matches_per_record_framing(batch_index, ops, data):
    # Any ids of the stream, in any order: a cluster sub-batch is a
    # subset of its batch.
    stream = stream_of(ops)
    order = data.draw(st.permutations(range(len(ops))))
    ids = np.array(order[: data.draw(st.integers(0, len(ops)))], dtype=np.int64)
    rows = [stream[i] for i in ids.tolist()]
    assert encode_batch_frames(batch_index, stream, ids) == ref_group(batch_index, rows)


def test_tuple_value_raises_from_both_encoders(tmp_path):
    bad = OperationStream(
        [Operation(op_id=0, kind=OpKind.WRITE, key=b"k", value=(1, 2))]
    )
    with pytest.raises(SimulationError, match="tuple"):
        encode_batch_frames(0, bad, all_ids(bad))
    with WriteAheadLog(str(tmp_path / "wal.log")) as wal:
        wal.begin_batch(0)
        with pytest.raises(SimulationError, match="tuple"):
            wal.log_ops(bad, all_ids(bad))
    with pytest.raises(SimulationError, match="tuple"):
        build_payload(tree_of({b"abc": 1, b"abd": (1, 2)}), 0)


# ---------------------------------------------------------------------------
# damaged input raises only SimulationError
# ---------------------------------------------------------------------------

damage = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=7)),
    min_size=1,
    max_size=4,
)


def damaged(data, flips, cut):
    out = bytearray(data)
    for position, bit in flips:
        out[position % len(out)] ^= 1 << bit
    return bytes(out[: len(out) - cut % len(out)])


def reframed(data, index, flips, cut):
    """``data`` with record ``index``'s payload damaged, then re-framed
    with a valid length and CRC: damage the CRC cannot catch."""
    records = []
    offset = 0
    while offset < len(data):
        length, _ = struct.unpack_from("<II", data, offset)
        records.append(data[offset + 8 : offset + 8 + length])
        offset += 8 + length
    index %= len(records)
    payload = records[index]
    records[index] = damaged(payload, flips, cut) if payload else payload
    return b"".join(frame(record) for record in records)


def decodes_or_simulation_error(decode, data):
    try:
        decode(data)
    except SimulationError:
        pass


@given(mapping=st.dictionaries(tree_keys, values, min_size=1, max_size=20),
       flips=damage, cut=st.integers(min_value=0), index=st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_damaged_checkpoint_payload_raises_only_simulation_error(
    mapping, flips, cut, index
):
    payload = build_payload(tree_of(mapping), 0, ACCEL)
    decodes_or_simulation_error(parse_payload, damaged(payload, flips, cut))
    decodes_or_simulation_error(parse_payload, reframed(payload, index, flips, cut))


@given(ops=operations, flips=damage, cut=st.integers(min_value=0),
       index=st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_damaged_wal_group_raises_only_simulation_error(ops, flips, cut, index):
    stream = stream_of(ops)
    group = encode_batch_frames(3, stream, all_ids(stream))
    decodes_or_simulation_error(decode_frames, damaged(group, flips, cut))
    decodes_or_simulation_error(decode_frames, reframed(group, index, flips, cut))


def test_crc_valid_short_op_record_is_a_simulation_error():
    short_op = frame(bytes([REC_OP, 1]) + b"\x00\x00")
    with pytest.raises(SimulationError, match="malformed WAL record"):
        decode_frames(short_op)
