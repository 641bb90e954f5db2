"""Unit tests for the Adaptive Radix Tree."""

import pytest

from repro.art import AdaptiveRadixTree, encode_str, encode_u64, record_traversal
from repro.art.nodes import Leaf, Node4, Node16, Node48, Node256
from repro.errors import DuplicateKeyError, KeyNotFoundError, TreeError


@pytest.fixture
def tree():
    return AdaptiveRadixTree()


class TestEmptyTree:
    def test_len(self, tree):
        assert len(tree) == 0
        assert tree.is_empty()

    def test_get_default(self, tree):
        assert tree.get(b"1234", "absent") == "absent"

    def test_search_raises(self, tree):
        with pytest.raises(KeyNotFoundError):
            tree.search(b"1234")

    def test_delete_raises(self, tree):
        with pytest.raises(KeyNotFoundError):
            tree.delete(b"1234")

    def test_minimum_raises(self, tree):
        with pytest.raises(KeyNotFoundError):
            tree.minimum()

    def test_items_empty(self, tree):
        assert list(tree.items()) == []

    def test_validate_passes(self, tree):
        tree.validate()


class TestSingleKey:
    def test_insert_then_search(self, tree):
        tree.insert(b"abcd", 1)
        assert tree.search(b"abcd") == 1
        assert len(tree) == 1
        assert b"abcd" in tree

    def test_root_is_leaf(self, tree):
        tree.insert(b"abcd", 1)
        assert isinstance(tree.root, Leaf)

    def test_duplicate_insert_raises(self, tree):
        tree.insert(b"abcd", 1)
        with pytest.raises(DuplicateKeyError):
            tree.insert(b"abcd", 2)
        assert tree.search(b"abcd") == 1

    def test_update(self, tree):
        tree.insert(b"abcd", 1)
        tree.update(b"abcd", 2)
        assert tree.search(b"abcd") == 2

    def test_update_missing_raises(self, tree):
        tree.insert(b"abcd", 1)
        with pytest.raises(KeyNotFoundError):
            tree.update(b"abce", 2)

    def test_upsert_insert_then_overwrite(self, tree):
        assert tree.upsert(b"abcd", 1) is True
        assert tree.upsert(b"abcd", 2) is False
        assert tree.search(b"abcd") == 2

    def test_delete_returns_value(self, tree):
        tree.insert(b"abcd", 42)
        assert tree.delete(b"abcd") == 42
        assert len(tree) == 0
        assert tree.root is None


class TestLazyExpansion:
    def test_two_keys_create_n4_at_divergence(self, tree):
        tree.insert(b"aaaa", 1)
        tree.insert(b"aaab", 2)
        assert isinstance(tree.root, Node4)
        # Path compression: the shared prefix "aaa" lives in the N4.
        assert tree.root.prefix == b"aaa"
        assert tree.search(b"aaaa") == 1
        assert tree.search(b"aaab") == 2

    def test_divergence_at_first_byte(self, tree):
        tree.insert(b"aaaa", 1)
        tree.insert(b"baaa", 2)
        assert isinstance(tree.root, Node4)
        assert tree.root.prefix == b""
        assert tree.height() == 2

    def test_prefix_key_rejected(self, tree):
        tree.insert(b"abcd", 1)
        with pytest.raises(TreeError):
            tree.insert(b"ab", 2)

    def test_longer_key_over_existing_prefix_rejected(self, tree):
        tree.insert(encode_str("ab"), 1)
        tree.insert(encode_str("ac"), 2)
        # encode_str keeps keys prefix-free, so this must work:
        tree.insert(encode_str("abc"), 3)
        assert tree.search(encode_str("abc")) == 3


class TestPrefixSplit:
    def test_split_compressed_path(self, tree):
        tree.insert(b"aaaaaaaz", 1)
        tree.insert(b"aaaaaaay", 2)  # N4 with prefix "aaaaaaa"
        tree.insert(b"aabbbbbb", 3)  # diverges inside the prefix
        assert tree.search(b"aaaaaaaz") == 1
        assert tree.search(b"aaaaaaay") == 2
        assert tree.search(b"aabbbbbb") == 3
        assert isinstance(tree.root, Node4)
        # common_prefix("aaaaaaa", "aabbbbbb") == "aa"
        assert tree.root.prefix == b"aa"
        tree.validate()
        # Two splits, each adding one N4: the leaf split, then the prefix split.
        assert tree.node_counts() == {"N4": 2, "N16": 0, "N48": 0, "N256": 0, "Leaf": 3}

    def test_split_retains_subtree(self, tree):
        for suffix in b"wxyz":
            tree.insert(b"commonpre" + bytes([suffix]), suffix)
        tree.insert(b"comXotherx", 99)
        for suffix in b"wxyz":
            assert tree.search(b"commonpre" + bytes([suffix])) == suffix
        assert tree.search(b"comXotherx") == 99
        tree.validate()


class TestNodeGrowth:
    def build(self, tree, count):
        """Insert ``count`` keys under one node; return how many grew it."""
        growths = 0
        for i in range(count):
            with record_traversal(tree, "write") as rec:
                tree.insert(bytes([0x10, i, 0, 0]), i)
            growths += rec.node_type_changed
        return growths

    def test_grow_to_n16(self, tree):
        self.build(tree, 5)
        assert isinstance(tree.root, Node16)
        tree.validate()

    def test_grow_to_n48(self, tree):
        self.build(tree, 17)
        assert isinstance(tree.root, Node48)
        tree.validate()

    def test_grow_to_n256(self, tree):
        self.build(tree, 49)
        assert isinstance(tree.root, Node256)
        tree.validate()

    def test_values_survive_every_growth(self, tree):
        assert self.build(tree, 256) == 3
        assert isinstance(tree.root, Node256)
        for i in range(256):
            assert tree.search(bytes([0x10, i, 0, 0])) == i

    def test_growth_counted(self, tree):
        assert self.build(tree, 5) == 1


class TestDeletion:
    def test_delete_missing_raises(self, tree):
        tree.insert(b"aaaa", 1)
        tree.insert(b"aaab", 2)
        with pytest.raises(KeyNotFoundError):
            tree.delete(b"aaac")

    def test_path_merge_on_last_sibling(self, tree):
        tree.insert(b"aaaa", 1)
        tree.insert(b"aaab", 2)
        with record_traversal(tree, "delete", b"aaab") as rec:
            tree.delete(b"aaab")
        assert rec.outcome == "deleted"
        assert rec.node_type_changed  # the path merge
        # The N4 collapses back to a bare leaf.
        assert isinstance(tree.root, Leaf)
        assert tree.search(b"aaaa") == 1

    def test_path_merge_folds_prefixes(self, tree):
        tree.insert(b"aaaaaaaz", 1)
        tree.insert(b"aaaaaaay", 2)
        tree.insert(b"aabbbbbb", 3)
        tree.delete(b"aabbbbbb")
        # Root N4 (prefix "a") collapses into the inner child; its prefix
        # must be restored to the full "aaaaaaa".
        assert isinstance(tree.root, Node4)
        assert tree.root.prefix == b"aaaaaaa"
        assert tree.search(b"aaaaaaaz") == 1
        assert tree.search(b"aaaaaaay") == 2
        tree.validate()

    def test_shrink_n16_to_n4(self, tree):
        for i in range(5):
            tree.insert(bytes([1, i, 0, 0]), i)
        assert isinstance(tree.root, Node16)
        tree.delete(bytes([1, 4, 0, 0]))
        tree.delete(bytes([1, 3, 0, 0]))
        assert isinstance(tree.root, Node4)
        tree.validate()

    def test_shrink_chain_all_the_way_down(self, tree):
        for i in range(256):
            tree.insert(bytes([1, i, 0, 0]), i)
        assert isinstance(tree.root, Node256)
        for i in range(255, 1, -1):
            tree.delete(bytes([1, i, 0, 0]))
        assert isinstance(tree.root, Node4)
        assert tree.search(bytes([1, 0, 0, 0])) == 0
        assert tree.search(bytes([1, 1, 0, 0])) == 1
        tree.validate()

    def test_insert_delete_all_leaves_empty(self, tree):
        universe = [encode_u64(i * 7919) for i in range(300)]
        for i, key in enumerate(universe):
            tree.insert(key, i)
        for key in universe:
            tree.delete(key)
        assert len(tree) == 0
        assert tree.root is None

    def test_delete_root_leaf_wrong_key_raises(self, tree):
        tree.insert(b"aaaa", 1)
        with pytest.raises(KeyNotFoundError):
            tree.delete(b"aaab")


class TestOrderedIteration:
    def test_items_sorted(self, tree):
        import random

        rng = random.Random(7)
        values = rng.sample(range(10**6), 500)
        for v in values:
            tree.insert(encode_u64(v), v)
        result = [v for _, v in tree.items()]
        assert result == sorted(values)

    def test_minimum_maximum(self, tree):
        for v in (500, 3, 999999, 42):
            tree.insert(encode_u64(v), v)
        assert tree.minimum()[1] == 3
        assert tree.maximum()[1] == 999999

    def test_keys_iteration(self, tree):
        for v in (5, 1, 3):
            tree.insert(encode_u64(v), v)
        assert list(tree.keys()) == [encode_u64(1), encode_u64(3), encode_u64(5)]


class TestRangeScan:
    @pytest.fixture
    def populated(self, tree):
        for v in range(0, 1000, 10):
            tree.insert(encode_u64(v), v)
        return tree

    def test_inclusive_bounds(self, populated):
        got = [v for _, v in populated.range_scan(encode_u64(100), encode_u64(200))]
        assert got == list(range(100, 201, 10))

    def test_bounds_between_keys(self, populated):
        got = [v for _, v in populated.range_scan(encode_u64(101), encode_u64(199))]
        assert got == list(range(110, 200, 10))

    def test_empty_range(self, populated):
        assert list(populated.range_scan(encode_u64(101), encode_u64(109))) == []

    def test_inverted_range(self, populated):
        assert list(populated.range_scan(encode_u64(200), encode_u64(100))) == []

    def test_full_range(self, populated):
        got = [v for _, v in populated.range_scan(encode_u64(0), encode_u64(2**64 - 1))]
        assert got == list(range(0, 1000, 10))

    def test_scan_prunes_subtrees(self, populated):
        # A narrow scan must touch far fewer nodes than a full scan.
        with record_traversal(populated, "scan") as narrow:
            list(populated.range_scan(encode_u64(100), encode_u64(120)))
        with record_traversal(populated, "scan") as full:
            list(populated.range_scan(encode_u64(0), encode_u64(2**64 - 1)))
        assert len(narrow.touches) < len(full.touches) / 2

    def test_string_keys(self, tree):
        for word in ("apple", "apricot", "banana", "cherry", "date"):
            tree.insert(encode_str(word), word)
        got = [v for _, v in tree.range_scan(encode_str("ap"), encode_str("b~"))]
        assert got == ["apple", "apricot", "banana"]


class TestStructureInspection:
    def test_node_counts(self, tree):
        for i in range(20):
            tree.insert(bytes([1, i, 0, 0]), i)
        counts = tree.node_counts()
        assert counts["Leaf"] == 20
        assert counts["N48"] == 1

    def test_height_grows_with_divergence(self, tree):
        tree.insert(b"\x01\x01\x01\x01", 1)
        assert tree.height() == 1
        tree.insert(b"\x01\x01\x01\x02", 2)
        assert tree.height() == 2
        tree.insert(b"\x01\x02\x01\x01", 3)
        assert tree.height() == 3

    def test_memory_footprint_positive(self, tree):
        for i in range(50):
            tree.insert(encode_u64(i), i)
        assert tree.memory_footprint() > 50 * 8

    def test_path_compression_keeps_tree_shallow(self, tree):
        # 8-byte keys differing only in the last byte: height must be 2
        # (one N4 with a 7-byte compressed prefix + leaves), not 8.
        tree.insert(b"\x01" * 7 + b"\x01", 1)
        tree.insert(b"\x01" * 7 + b"\x02", 2)
        assert tree.height() == 2

    def test_validate_detects_corruption(self, tree):
        tree.insert(b"aaaa", 1)
        tree.insert(b"aaab", 2)
        tree.root.prefix = b"zzz"  # corrupt the compressed path
        with pytest.raises(TreeError):
            tree.validate()


class TestKeyValidation:
    def test_rejects_empty_key(self, tree):
        with pytest.raises(TreeError):
            tree.insert(b"", 1)

    def test_rejects_str_key(self, tree):
        with pytest.raises(TreeError):
            tree.insert("abcd", 1)

    def test_accepts_bytearray(self, tree):
        tree.insert(bytearray(b"abcd"), 1)
        assert tree.get(bytearray(b"abcd")) == 1


class TestAddressing:
    def test_nodes_have_distinct_addresses(self, tree):
        for i in range(100):
            tree.insert(encode_u64(i), i)
        addresses = set()

        def walk(node):
            addresses.add(node.address)
            if not isinstance(node, Leaf):
                for _, child in node.children_items():
                    walk(child)

        walk(tree.root)
        assert len(addresses) == sum(tree.node_counts().values())

    def test_node_at_resolves_live_nodes(self, tree):
        tree.insert(b"aaaa", 1)
        assert tree.node_at(tree.root.address) is tree.root

    def test_node_at_stale_address_returns_none(self, tree):
        tree.insert(b"aaaa", 1)
        old_address = tree.root.address
        tree.insert(b"aaab", 2)  # leaf split; old leaf remains live
        tree.delete(b"aaaa")
        assert tree.node_at(old_address) is None
