"""Crash-consistent checkpoints of the ART + accelerator state.

A checkpoint is two files in the durability directory:

* ``ckpt-<seq>.bin`` — the payload: the same length+CRC framing as the
  WAL, carrying a header record (format version, the batch index the
  image covers, key count), one record per ``(key, value)`` item in
  ascending key order, and one accelerator-state record (shortcut-table
  entries, bucket residue) as CRC-protected JSON.
* ``ckpt-<seq>.json`` — the manifest: payload filename, size, and
  sha256, plus the tree's node census.  **The manifest is the commit
  record**: a checkpoint exists iff its manifest parses and its sha256
  matches the payload bytes.

Write order is the crash-consistency argument: payload to a temp name,
fsync, atomic rename; then manifest to a temp name, fsync, atomic
rename.  A crash at any point leaves either no manifest (payload temp
ignored) or a manifest whose hash exposes a damaged payload — recovery
skips both and falls back to the previous checkpoint.

The ART needs no structural serialisation: a radix tree is canonical in
its key set, so reloading the sorted items through plain inserts
reproduces the exact node structure the live tree had (the property
tests pin this).  What must be carried is the *data*: keys, values, and
the accelerator's warm state.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.art.tree import AdaptiveRadixTree
from repro.durability.wal import _FRAME, decode_value, encode_value, frame
from repro.errors import SimulatedCrash, SimulationError
from repro.log import get_logger

LOG = get_logger("durability")

CHECKPOINT_FORMAT = 1
PAYLOAD_SUFFIX = ".bin"
MANIFEST_SUFFIX = ".json"
TMP_SUFFIX = ".tmp"

REC_CKPT_HEADER = 10
REC_CKPT_ITEM = 11
REC_CKPT_ACCEL = 12

_HEADER = struct.Struct("<BIqQ")  # kind, format, batch_index, n_keys
_ITEM_HEADER = struct.Struct("<BH")  # kind, key_len

#: Crash points :func:`write_checkpoint` can be armed with.
CRASH_PAYLOAD = "ckpt-payload"
CRASH_MANIFEST = "ckpt-manifest"


def checkpoint_name(batch_index: int) -> str:
    """Stem of the checkpoint covering batches up to ``batch_index``.

    ``batch_index`` is ``-1`` for the bulk-load (pre-batch) snapshot, so
    sequence numbers are stored offset by one to stay non-negative.
    """
    return f"ckpt-{batch_index + 1:08d}"


@dataclass
class CheckpointInfo:
    """One on-disk checkpoint, located via its manifest."""

    directory: str
    seq: int
    manifest: Dict = field(default_factory=dict)

    @property
    def batch_index(self) -> int:
        return self.manifest.get("batch_index", self.seq - 1)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, f"ckpt-{self.seq:08d}{MANIFEST_SUFFIX}")

    @property
    def payload_path(self) -> str:
        return os.path.join(self.directory, self.manifest["payload"])


def build_payload(
    tree: AdaptiveRadixTree,
    batch_index: int,
    accel_state: Optional[Dict] = None,
) -> bytes:
    """Serialise the tree + accelerator state into the framed payload.

    One walk over the leaves frames each item straight into one buffer.
    """
    header = _HEADER.pack(REC_CKPT_HEADER, CHECKPOINT_FORMAT, batch_index, len(tree))
    out = bytearray(frame(header))
    pack_frame = _FRAME.pack
    pack_header = _ITEM_HEADER.pack
    crc32 = zlib.crc32
    for leaf in tree.leaves():
        key = leaf.key
        payload = (
            pack_header(REC_CKPT_ITEM, len(key)) + key + encode_value(leaf.value)
        )
        out += pack_frame(len(payload), crc32(payload))
        out += payload
    accel_json = json.dumps(accel_state or {}, sort_keys=True).encode("utf-8")
    out += frame(bytes([REC_CKPT_ACCEL]) + accel_json)
    return bytes(out)


def parse_payload(data: bytes) -> Tuple[int, List[Tuple[bytes, object]], Dict]:
    """Decode a payload; returns ``(batch_index, items, accel_state)``.

    Raises :class:`SimulationError` on any framing/CRC/structure damage —
    the caller (recovery) treats that as "this checkpoint is corrupt".
    """
    offset = 0
    batch_index: Optional[int] = None
    declared_keys = 0
    items: List[Tuple[bytes, object]] = []
    accel_state: Dict = {}
    saw_accel = False
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            raise SimulationError("checkpoint payload truncated mid-frame")
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > len(data):
            raise SimulationError("checkpoint record overruns payload")
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            raise SimulationError("checkpoint record CRC mismatch")
        if not payload:
            raise SimulationError(f"empty checkpoint record at byte {offset}")
        kind = payload[0]
        try:
            if kind == REC_CKPT_HEADER:
                _, version, batch_index, declared_keys = _HEADER.unpack(payload)
                if version != CHECKPOINT_FORMAT:
                    raise SimulationError(f"unknown checkpoint format {version}")
            elif kind == REC_CKPT_ITEM:
                _, key_len = _ITEM_HEADER.unpack_from(payload)
                key = payload[_ITEM_HEADER.size : _ITEM_HEADER.size + key_len]
                value, end = decode_value(payload, _ITEM_HEADER.size + key_len)
                if end != len(payload):
                    raise SimulationError(
                        f"checkpoint item is {len(payload)} bytes, "
                        f"its fields {end}"
                    )
                items.append((key, value))
            elif kind == REC_CKPT_ACCEL:
                accel_state = json.loads(payload[1:].decode("utf-8"))
                saw_accel = True
            else:
                raise SimulationError(f"unknown checkpoint record kind {kind}")
        except (struct.error, IndexError, ValueError) as exc:
            raise SimulationError(
                f"malformed checkpoint record at byte {offset}: {exc}"
            ) from exc
        offset = start + length
    if batch_index is None:
        raise SimulationError("checkpoint payload has no header record")
    if len(items) != declared_keys:
        raise SimulationError(
            f"checkpoint declares {declared_keys} keys but carries {len(items)}"
        )
    if not saw_accel:
        raise SimulationError("checkpoint payload missing accelerator record")
    return batch_index, items, accel_state


def _write_atomic(path: str, data: bytes, real_fsync: bool) -> None:
    tmp = path + TMP_SUFFIX
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if real_fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_checkpoint(
    directory: str,
    tree: AdaptiveRadixTree,
    batch_index: int,
    accel_state: Optional[Dict] = None,
    real_fsync: bool = False,
    crash: Optional[str] = None,
    crash_fraction: float = 0.5,
) -> CheckpointInfo:
    """Write one checkpoint with the two-phase atomic protocol.

    ``crash`` arms a chaos crash point: :data:`CRASH_PAYLOAD` kills the
    writer mid-payload (temp file partially written, never renamed);
    :data:`CRASH_MANIFEST` kills it mid-manifest (a torn manifest JSON
    lands at the final name — the pathological case a hostile filesystem
    can produce, which recovery must also survive).
    """
    os.makedirs(directory, exist_ok=True)
    payload = build_payload(tree, batch_index, accel_state)
    stem = checkpoint_name(batch_index)
    payload_name = stem + PAYLOAD_SUFFIX

    if crash == CRASH_PAYLOAD:
        keep = max(1, int(len(payload) * crash_fraction))
        tmp = os.path.join(directory, payload_name + TMP_SUFFIX)
        with open(tmp, "wb") as handle:  # reprolint: disable=DUR01 -- deliberate torn write: chaos crash point CRASH_PAYLOAD simulates dying mid-payload; the temp name is never renamed into place
            handle.write(payload[:keep])
        raise SimulatedCrash(
            f"crash mid-checkpoint payload ({stem})",
            {"point": CRASH_PAYLOAD, "batch_index": batch_index,
             "bytes_written": keep, "payload_bytes": len(payload)},
        )

    _write_atomic(os.path.join(directory, payload_name), payload, real_fsync)

    manifest = {
        "format": CHECKPOINT_FORMAT,
        "seq": batch_index + 1,
        "batch_index": batch_index,
        "payload": payload_name,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "n_keys": len(tree),
        "node_counts": tree.node_counts(),
    }
    manifest_bytes = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    manifest_path = os.path.join(directory, stem + MANIFEST_SUFFIX)

    if crash == CRASH_MANIFEST:
        keep = max(1, int(len(manifest_bytes) * crash_fraction))
        with open(manifest_path, "wb") as handle:  # reprolint: disable=DUR01 -- deliberate torn write: chaos crash point CRASH_MANIFEST plants a torn manifest at the final name, the hostile-filesystem case recovery must survive
            handle.write(manifest_bytes[:keep])
        raise SimulatedCrash(
            f"crash mid-checkpoint manifest ({stem})",
            {"point": CRASH_MANIFEST, "batch_index": batch_index,
             "bytes_written": keep},
        )

    _write_atomic(manifest_path, manifest_bytes, real_fsync)
    LOG.info(
        "checkpoint %s: %d keys, %d payload bytes", stem, len(tree), len(payload)
    )
    return CheckpointInfo(directory=directory, seq=batch_index + 1, manifest=manifest)


def list_checkpoints(directory: str) -> List[CheckpointInfo]:
    """Discover checkpoints, newest first, by their manifest files.

    A manifest that does not parse as a JSON object (torn write, stray
    file) is surfaced with an empty ``manifest`` dict so recovery can
    count it as skipped.
    """
    found: List[CheckpointInfo] = []
    if not os.path.isdir(directory):
        return found
    for name in os.listdir(directory):
        if not name.startswith("ckpt-") or not name.endswith(MANIFEST_SUFFIX):
            continue
        try:
            seq = int(name[len("ckpt-") : -len(MANIFEST_SUFFIX)])
        except ValueError:
            continue
        info = CheckpointInfo(directory=directory, seq=seq)
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            manifest = {}
        info.manifest = manifest if isinstance(manifest, dict) else {}
        found.append(info)
    return sorted(found, key=lambda info: info.seq, reverse=True)


def load_checkpoint(
    info: CheckpointInfo,
) -> Tuple[int, List[Tuple[bytes, object]], Dict]:
    """Verify and decode one checkpoint; raises on any corruption.

    Verification order mirrors trust: the manifest must carry the
    payload pointer and hash, the payload bytes must hash to exactly the
    signed digest, and only then are the frames decoded.
    """
    if not info.manifest:
        raise SimulationError(f"checkpoint seq {info.seq}: unreadable manifest")
    for required, kind in (
        ("payload", str), ("sha256", str), ("batch_index", int), ("n_keys", int)
    ):
        if required not in info.manifest:
            raise SimulationError(
                f"checkpoint seq {info.seq}: manifest missing {required!r}"
            )
        if not isinstance(info.manifest[required], kind):
            raise SimulationError(
                f"checkpoint seq {info.seq}: manifest {required!r} "
                f"is not {kind.__name__}"
            )
    try:
        with open(info.payload_path, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise SimulationError(
            f"checkpoint seq {info.seq}: payload unreadable: {exc}"
        ) from exc
    digest = hashlib.sha256(payload).hexdigest()
    if digest != info.manifest["sha256"]:
        raise SimulationError(
            f"checkpoint seq {info.seq}: payload sha256 mismatch "
            f"({digest[:12]}… vs signed {info.manifest['sha256'][:12]}…)"
        )
    batch_index, items, accel_state = parse_payload(payload)
    if batch_index != info.manifest["batch_index"]:
        raise SimulationError(
            f"checkpoint seq {info.seq}: header batch {batch_index} "
            f"disagrees with manifest {info.manifest['batch_index']}"
        )
    if len(items) != info.manifest["n_keys"]:
        raise SimulationError(
            f"checkpoint seq {info.seq}: {len(items)} items vs manifest "
            f"n_keys {info.manifest['n_keys']}"
        )
    return batch_index, items, accel_state


def restore_tree(items: List[Tuple[bytes, object]]) -> AdaptiveRadixTree:
    """Rebuild the canonical ART from checkpointed items."""
    tree = AdaptiveRadixTree()
    for key, value in items:
        tree.upsert(key, value)
    return tree
