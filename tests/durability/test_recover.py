"""Recovery tests: checkpoint fallback, committed-tail replay, idempotence."""

import json
import os

import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.durability import DurabilityManager, recover
from repro.durability.checkpoint import list_checkpoints
from repro.durability.recover import select_checkpoint, wal_path
from repro.errors import KeyNotFoundError, RecoveryError, SimulatedCrash
from repro.workloads.ops import OpKind, Operation
from tests.opstreams import batched


def write_op(op_id, key, value=None):
    return Operation(op_id=op_id, kind=OpKind.WRITE, key=key, value=value)


def delete_op(op_id, key):
    return Operation(op_id=op_id, kind=OpKind.DELETE, key=key)


def key(i):
    return i.to_bytes(4, "big")


def durable_run(directory, batches, checkpoint_every=2, base_keys=10):
    """Drive a DurabilityManager by hand: log, apply, maybe checkpoint."""
    tree = AdaptiveRadixTree()
    for i in range(base_keys):
        tree.insert(key(i), i)
    manager = DurabilityManager(directory, checkpoint_every=checkpoint_every)
    manager.attach(tree)
    stream, batch_ids = batched(batches)
    for batch_index, (ops, ids) in enumerate(zip(batches, batch_ids)):
        manager.log_batch(batch_index, stream, ids)
        for op in ops:
            if op.kind is OpKind.WRITE:
                tree.upsert(op.key, op.value)
            else:
                try:
                    tree.delete(op.key)
                except KeyNotFoundError:
                    pass
        manager.maybe_checkpoint(batch_index, tree)
    manager.close()
    return tree


BATCHES = [
    [write_op(0, key(100), "a"), write_op(1, key(101), "b")],
    [delete_op(2, key(0)), write_op(3, key(100), "a2")],
    [write_op(4, key(102), "c")],
]


class TestRecover:
    def test_full_recovery_equals_live_tree(self, tmp_path):
        directory = str(tmp_path)
        live = durable_run(directory, BATCHES)
        result = recover(directory)
        assert result.ok
        assert result.committed_through == 2
        assert dict(result.tree.items()) == dict(live.items())

    def test_falls_back_when_newest_checkpoint_corrupt(self, tmp_path):
        directory = str(tmp_path)
        live = durable_run(directory, BATCHES, checkpoint_every=2)
        newest = list_checkpoints(directory)[0]
        with open(newest.payload_path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\x00\x00\x00\x00")
        result = recover(directory)
        assert result.ok
        assert len(result.checkpoints_skipped) == 1
        assert "sha256 mismatch" in result.checkpoints_skipped[0]
        assert result.checkpoint_batch < newest.batch_index
        # Replay over the older base still reaches the same final state.
        assert dict(result.tree.items()) == dict(live.items())

    def test_no_checkpoints_replays_full_wal_from_empty(self, tmp_path):
        directory = str(tmp_path)
        durable_run(directory, BATCHES, base_keys=0)
        for info in list_checkpoints(directory):
            os.unlink(info.manifest_path)
        result = recover(directory)
        assert result.ok
        assert result.checkpoint_batch == -1
        assert result.tree.search(key(102)) == "c"

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(str(tmp_path))

    def test_replay_crash_is_idempotent(self, tmp_path):
        directory = str(tmp_path)
        live = durable_run(directory, BATCHES, checkpoint_every=100)
        before = open(wal_path(directory), "rb").read()
        with pytest.raises(SimulatedCrash):
            recover(directory, crash_at_op=2)
        # Replay writes nothing: identical files, identical second answer.
        assert open(wal_path(directory), "rb").read() == before
        result = recover(directory)
        assert result.ok
        assert dict(result.tree.items()) == dict(live.items())

    def test_uncommitted_tail_is_never_applied(self, tmp_path):
        directory = str(tmp_path)
        tree = AdaptiveRadixTree()
        manager = DurabilityManager(directory, checkpoint_every=100)
        manager.attach(tree)
        stream, batch_ids = batched([BATCHES[0], [write_op(2, key(999), "ghost")]])
        manager.log_batch(0, stream, batch_ids[0])
        for op in BATCHES[0]:
            tree.upsert(op.key, op.value)
        # Batch 1 begins but the machine dies before COMMIT.
        manager.arm_crash("wal-pre-commit")
        with pytest.raises(SimulatedCrash):
            manager.log_batch(1, stream, batch_ids[1])
        manager.close()

        result = recover(directory)
        assert result.ok
        assert result.committed_through == 0
        assert result.uncommitted_ops_skipped == 1
        assert result.tree.search(key(100)) == "a"
        with pytest.raises(KeyNotFoundError):
            result.tree.search(key(999))

    @pytest.mark.parametrize("manifest, reason", [
        (7, "unreadable manifest"),
        ({"payload": 5}, "manifest 'payload' is not str"),
        ({"sha256": 5}, "manifest 'sha256' is not str"),
    ], ids=["not-an-object", "payload-not-str", "sha256-not-str"])
    def test_manifest_that_is_not_an_object_is_skipped(
        self, tmp_path, manifest, reason
    ):
        directory = str(tmp_path)
        live = durable_run(directory, BATCHES, checkpoint_every=2)
        good = list_checkpoints(directory)[0]
        # Valid JSON, but not a manifest object, or an object with one
        # field of the wrong type.
        if isinstance(manifest, dict):
            manifest = {**good.manifest, **manifest}
        with open(os.path.join(directory, "ckpt-00000005.json"), "w") as handle:
            json.dump(manifest, handle)
        skipped = []
        info, *_ = select_checkpoint(directory, skipped)
        assert info.seq == good.seq
        assert skipped == [f"seq 5: checkpoint seq 5: {reason}"]
        result = recover(directory)
        assert result.ok
        assert result.checkpoint_batch == good.batch_index
        assert dict(result.tree.items()) == dict(live.items())
