"""Checkpoint unit tests: atomic protocol, sha256 signing, corruption."""

import json
import os

import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.durability.checkpoint import (
    CRASH_MANIFEST,
    CRASH_PAYLOAD,
    build_payload,
    checkpoint_name,
    list_checkpoints,
    load_checkpoint,
    parse_payload,
    restore_tree,
    write_checkpoint,
)
from repro.durability.wal import frame
from repro.errors import SimulatedCrash, SimulationError


def make_tree(n=50):
    tree = AdaptiveRadixTree()
    for i in range(n):
        tree.insert(i.to_bytes(4, "big"), i * 10)
    return tree


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        directory = str(tmp_path)
        tree = make_tree()
        accel = {"shortcut_entries": [["0001", 4, 2]], "bucket_spilled_bytes": 7}
        info = write_checkpoint(directory, tree, batch_index=5, accel_state=accel)
        assert info.seq == 6
        assert info.manifest["n_keys"] == len(tree)

        found = list_checkpoints(directory)
        assert [c.seq for c in found] == [6]
        batch, items, state = load_checkpoint(found[0])
        assert batch == 5
        assert state == accel
        restored = restore_tree(items)
        assert list(restored.items()) == list(tree.items())
        restored.validate()

    def test_bulk_load_snapshot_is_seq_zero(self, tmp_path):
        info = write_checkpoint(str(tmp_path), make_tree(3), batch_index=-1)
        assert info.seq == 0
        assert checkpoint_name(-1) == "ckpt-00000000"

    def test_newest_first_ordering(self, tmp_path):
        directory = str(tmp_path)
        for batch in (-1, 2, 5):
            write_checkpoint(directory, make_tree(5), batch_index=batch)
        assert [c.seq for c in list_checkpoints(directory)] == [6, 3, 0]

    def test_payload_parse_rejects_damage(self):
        payload = build_payload(make_tree(10), 0, {})
        with pytest.raises(SimulationError):
            parse_payload(payload[:-3])  # truncated
        mangled = bytearray(payload)
        mangled[len(mangled) // 2] ^= 0x40
        with pytest.raises(SimulationError):
            parse_payload(bytes(mangled))  # CRC
        with pytest.raises(SimulationError, match="empty checkpoint record"):
            parse_payload(frame(b"") + payload)  # CRC-valid, zero length


class TestCorruptionDetection:
    def test_sha256_mismatch_rejected(self, tmp_path):
        directory = str(tmp_path)
        write_checkpoint(directory, make_tree(), batch_index=0)
        info = list_checkpoints(directory)[0]
        with open(info.payload_path, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff")
        with pytest.raises(SimulationError, match="sha256 mismatch"):
            load_checkpoint(info)

    def test_manifest_missing_fields_rejected(self, tmp_path):
        directory = str(tmp_path)
        write_checkpoint(directory, make_tree(), batch_index=0)
        info = list_checkpoints(directory)[0]
        with open(info.manifest_path, "w") as handle:
            json.dump({"format": 1}, handle)
        info = list_checkpoints(directory)[0]
        with pytest.raises(SimulationError, match="missing"):
            load_checkpoint(info)


class TestCrashPoints:
    def test_payload_crash_leaves_no_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        with pytest.raises(SimulatedCrash):
            write_checkpoint(
                directory, make_tree(), batch_index=0, crash=CRASH_PAYLOAD
            )
        # Only a temp file exists; no manifest means no checkpoint.
        assert list_checkpoints(directory) == []
        leftovers = os.listdir(directory)
        assert any(name.endswith(".tmp") for name in leftovers)
        assert not any(name.endswith(".json") for name in leftovers)

    def test_manifest_crash_leaves_unloadable_torn_manifest(self, tmp_path):
        directory = str(tmp_path)
        with pytest.raises(SimulatedCrash):
            write_checkpoint(
                directory, make_tree(), batch_index=0, crash=CRASH_MANIFEST
            )
        found = list_checkpoints(directory)
        assert len(found) == 1
        assert found[0].manifest == {}  # torn JSON surfaces as unreadable
        with pytest.raises(SimulationError, match="unreadable manifest"):
            load_checkpoint(found[0])
