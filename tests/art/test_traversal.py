"""Tests for per-operation traversal recording."""

import pytest

from repro.art import AdaptiveRadixTree, encode_u64, record_traversal
from repro.art.stats import CACHE_LINE_BYTES
from repro.errors import DuplicateKeyError


@pytest.fixture
def tree():
    t = AdaptiveRadixTree()
    # Two levels: byte 6 discriminates (values spaced 256 apart), byte 7 within.
    for i in range(16):
        for j in range(4):
            t.insert(encode_u64(i * 256 + j), (i, j))
    return t


class TestRecordTraversal:
    def test_search_records_path(self, tree):
        key = encode_u64(3 * 256 + 2)
        with record_traversal(tree, "read", key) as rec:
            assert tree.search(key) == (3, 2)
        assert rec.outcome == "hit"
        assert rec.depth >= 2
        assert rec.touches[-1].kind == "Leaf"
        assert rec.key == key
        assert rec.op_kind == "read"

    def test_miss_recorded(self, tree):
        with record_traversal(tree, "read") as rec:
            assert tree.get(encode_u64(10**9)) is None
        assert rec.outcome == "miss"

    def test_target_is_leaf_parent_for_reads(self, tree):
        key = encode_u64(3 * 256 + 2)
        with record_traversal(tree, "read", key) as rec:
            tree.search(key)
        leaf = rec.touches[-1]
        assert rec.target_node_id == leaf.node_id
        assert rec.parent_address == rec.touches[-2].address

    def test_insert_records_structure_modified(self, tree):
        with record_traversal(tree, "insert") as rec:
            tree.insert(encode_u64(99 * 256), None)
        assert rec.outcome == "inserted"
        assert rec.structure_modified

    def test_update_not_structure_modified(self, tree):
        with record_traversal(tree, "write") as rec:
            tree.update(encode_u64(0), "new")
        assert rec.outcome == "updated"
        assert not rec.structure_modified

    def test_growth_flags_node_type_changed(self):
        t = AdaptiveRadixTree()
        for i in range(4):
            t.insert(bytes([1, i, 0, 0]), None)
        with record_traversal(t, "insert") as rec:
            t.insert(bytes([1, 4, 0, 0]), None)
        assert rec.node_type_changed

    def test_recorder_removed_after_block(self, tree):
        with record_traversal(tree) as rec:
            tree.get(encode_u64(0))
        before = len(rec.touches)
        tree.get(encode_u64(1))
        assert len(rec.touches) == before

    def test_recorder_removed_on_exception(self, tree):
        with pytest.raises(DuplicateKeyError):
            with record_traversal(tree) as rec:
                tree.insert(encode_u64(0), None)
        assert tree._recorder is None
        assert rec.depth > 0  # the failed insert still walked the tree

    def test_nesting_restores_outer_recorder(self, tree):
        with record_traversal(tree) as outer:
            tree.get(encode_u64(0))
            with record_traversal(tree) as inner:
                tree.get(encode_u64(1))
            tree.get(encode_u64(2))
        assert len(inner.touches) < len(outer.touches)

    def test_bytes_fetched_are_line_multiples(self, tree):
        with record_traversal(tree) as rec:
            tree.search(encode_u64(0))
        assert rec.bytes_fetched % CACHE_LINE_BYTES == 0
        assert 0 < rec.bytes_used < rec.bytes_fetched


class TestTreeStats:
    """Tree-wide access figures, summed over one record of many ops."""

    def test_cacheline_utilisation_low_for_point_ops(self, tree):
        # The paper's Fig. 2(c): ~20 % of fetched bytes are useful.
        with record_traversal(tree, "read") as rec:
            for i in range(16):
                tree.search(encode_u64(i * 256))
        util = rec.bytes_used / rec.bytes_fetched
        assert 0.01 < util < 0.6
