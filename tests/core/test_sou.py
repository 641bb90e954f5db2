"""Tests for the Shortcut-based Operating Unit."""

import pytest

from repro.art import AdaptiveRadixTree, encode_u64
from repro.core.dispatcher import DispatchedBucket
from repro.core.shortcut_table import ShortcutTable
from repro.core.sou import (
    PIPELINE_II,
    ShortcutOperatingUnit,
    count_contended_groups,
    modifies_shared_ancestor,
)
from repro.core.tree_buffer import ValueAwareTreeBuffer
from repro.model.costs import FpgaCosts
from repro.workloads.ops import OpKind, Operation
from tests.opstreams import bucket_of


def make_sou(tree, shortcuts=None, buffer_bytes=1 << 20):
    return ShortcutOperatingUnit(
        sou_id=0,
        tree=tree,
        shortcuts=shortcuts,
        tree_buffer=ValueAwareTreeBuffer(buffer_bytes),
        costs=FpgaCosts(),
        shared_depth_bytes=0,
    )


@pytest.fixture
def tree():
    t = AdaptiveRadixTree()
    for i in range(64):
        t.insert(encode_u64(i * 7 + 1), i)
    return t


def bucket(ops):
    return DispatchedBucket(
        bucket_id=0, sou_id=0, operations=bucket_of(ops), value=len(ops)
    )


class TestFunctionalCorrectness:
    def test_reads_and_writes_apply(self, tree):
        shortcuts = ShortcutTable(4096)
        sou = make_sou(tree, shortcuts)
        key = encode_u64(8)  # 1*7+1
        sou.process_bucket(bucket([
            Operation(0, OpKind.READ, key),
            Operation(1, OpKind.WRITE, key, value="updated"),
            Operation(2, OpKind.READ, key),
        ]))
        assert tree.search(key) == "updated"

    def test_insert_through_sou(self, tree):
        sou = make_sou(tree, ShortcutTable(4096))
        new_key = encode_u64(10**9)
        sou.process_bucket(bucket([Operation(0, OpKind.WRITE, new_key, value=42)]))
        assert tree.search(new_key) == 42

    def test_delete_through_sou(self, tree):
        sou = make_sou(tree, ShortcutTable(4096))
        key = encode_u64(8)
        sou.process_bucket(bucket([Operation(0, OpKind.DELETE, key)]))
        assert key not in tree

    def test_write_via_shortcut_updates_value(self, tree):
        shortcuts = ShortcutTable(4096)
        sou = make_sou(tree, shortcuts)
        key = encode_u64(8)
        # First write traverses + generates; second hits the shortcut.
        sou.process_bucket(bucket([
            Operation(0, OpKind.WRITE, key, value="v1"),
            Operation(1, OpKind.WRITE, key, value="v2"),
        ]))
        assert tree.search(key) == "v2"


class TestShortcutBehaviour:
    def test_repeat_key_hits_shortcut(self, tree):
        shortcuts = ShortcutTable(4096)
        sou = make_sou(tree, shortcuts)
        key = encode_u64(8)
        ops = [Operation(i, OpKind.READ, key) for i in range(10)]
        outcome = sou.process_bucket(bucket(ops))
        assert outcome.traversals == 1
        assert outcome.shortcut_hits == 9
        # Only the single traversal performed partial-key matches.
        assert outcome.partial_key_matches < 10

    def test_shortcut_survives_across_buckets(self, tree):
        shortcuts = ShortcutTable(4096)
        sou = make_sou(tree, shortcuts)
        key = encode_u64(8)
        sou.process_bucket(bucket([Operation(0, OpKind.READ, key)]))
        outcome = sou.process_bucket(bucket([Operation(1, OpKind.READ, key)]))
        assert outcome.shortcut_hits == 1
        assert outcome.traversals == 0

    def test_stale_shortcut_detected_and_repaired(self, tree):
        shortcuts = ShortcutTable(4096)
        sou = make_sou(tree, shortcuts)
        key = encode_u64(8)
        sou.process_bucket(bucket([Operation(0, OpKind.READ, key)]))
        # Delete and re-insert the key: the leaf address changes.
        tree.delete(key)
        tree.insert(key, "reborn")
        outcome = sou.process_bucket(bucket([Operation(1, OpKind.READ, key)]))
        assert outcome.stale_shortcuts == 1
        assert outcome.traversals == 1
        assert shortcuts.stale_hits == 1
        # Repaired: the next access hits again.
        outcome = sou.process_bucket(bucket([Operation(2, OpKind.READ, key)]))
        assert outcome.shortcut_hits == 1

    def test_delete_never_uses_shortcut(self, tree):
        shortcuts = ShortcutTable(4096)
        sou = make_sou(tree, shortcuts)
        key = encode_u64(8)
        sou.process_bucket(bucket([Operation(0, OpKind.READ, key)]))
        outcome = sou.process_bucket(bucket([Operation(1, OpKind.DELETE, key)]))
        assert outcome.traversals == 1
        assert key not in tree
        # And the shortcut was dropped with the key.
        entry, _ = shortcuts.lookup(key)
        assert entry is None

    def test_no_shortcuts_mode(self, tree):
        sou = make_sou(tree, shortcuts=None)
        key = encode_u64(8)
        outcome = sou.process_bucket(
            bucket([Operation(i, OpKind.READ, key) for i in range(5)])
        )
        assert outcome.traversals == 5
        assert outcome.shortcut_hits == 0


class TestTiming:
    def test_buffer_hits_run_at_pipeline_ii(self, tree):
        shortcuts = ShortcutTable(1 << 20)
        sou = make_sou(tree, shortcuts)
        key = encode_u64(8)
        sou.process_bucket(bucket([Operation(0, OpKind.READ, key)]))
        outcome = sou.process_bucket(
            bucket([Operation(i, OpKind.READ, key) for i in range(1, 33)])
        )
        # Everything on chip: each op costs exactly the pipeline II.
        assert outcome.cycles == 32 * PIPELINE_II

    def test_offchip_miss_costs_more(self, tree):
        sou = make_sou(tree, ShortcutTable(4096))
        outcome1 = sou.process_bucket(
            bucket([Operation(0, OpKind.READ, encode_u64(8))])
        )
        # Same key again: now the path is in the Tree_buffer.
        outcome2 = sou.process_bucket(
            bucket([Operation(1, OpKind.READ, encode_u64(8))])
        )
        assert outcome1.cycles > outcome2.cycles

    def test_completion_cycles_monotone(self, tree):
        sou = make_sou(tree, ShortcutTable(4096))
        ops = [Operation(i, OpKind.READ, encode_u64(i * 7 + 1)) for i in range(8)]
        outcome = sou.process_bucket(bucket(ops))
        assert outcome.completion_cycles == sorted(outcome.completion_cycles)
        assert outcome.completion_cycles[-1] == outcome.cycles
        assert outcome.op_ids.tolist() == [op.op_id for op in ops]


class TestSharedAncestorDetection:
    def test_count_contended_groups(self):
        key_a, key_b = encode_u64(1), encode_u64(2)
        ops = [
            Operation(0, OpKind.READ, key_a),
            Operation(1, OpKind.WRITE, key_a, value=1),
            Operation(2, OpKind.READ, key_b),
            Operation(3, OpKind.READ, key_b),
        ]
        # key_a: 2 ops with a writer -> 1 group; key_b: read-only -> none.
        keys, kinds = [op.key for op in ops], [op.kind for op in ops]
        assert count_contended_groups(keys, kinds) == 1

    def test_modifies_shared_ancestor_at_root(self):
        tree = AdaptiveRadixTree()
        tree.insert(b"\x01\x01\x01\x01", 1)
        from repro.art.traversal import record_traversal

        with record_traversal(tree, "write") as rec:
            tree.upsert(b"\x02\x01\x01\x01", 2)  # splits at the root
        assert rec.structure_modified
        assert modifies_shared_ancestor(rec, shared_depth_bytes=0)

    def test_deep_modification_not_shared(self):
        tree = AdaptiveRadixTree()
        tree.insert(bytes([1, 1, 1, 0]), 0)
        tree.insert(bytes([1, 1, 1, 1]), 1)
        tree.insert(bytes([2, 1, 1, 0]), 2)  # root splits at byte 0
        from repro.art.traversal import record_traversal

        with record_traversal(tree, "write") as rec:
            tree.upsert(bytes([1, 1, 1, 9]), 9)  # modifies the depth-1 N4
        assert rec.structure_modified
        assert not modifies_shared_ancestor(rec, shared_depth_bytes=0)

    def test_root_growth_is_shared(self):
        tree = AdaptiveRadixTree()
        for i in range(4):
            tree.insert(bytes([i, 1, 1, 1]), i)
        from repro.art.traversal import record_traversal

        with record_traversal(tree, "write") as rec:
            tree.upsert(bytes([9, 1, 1, 1]), 9)  # root N4 -> N16
        assert rec.node_type_changed
        assert modifies_shared_ancestor(rec, shared_depth_bytes=0)
