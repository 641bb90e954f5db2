"""Property-based tests: the ART must behave exactly like a sorted dict.

Strategy: generate arbitrary operation sequences over a small key universe
and check, after every sequence, that (a) lookups agree with a reference
``dict``, (b) ordered iteration agrees with ``sorted``, and (c) every
structural invariant holds (``tree.validate()``: canonical node types,
sorted partial keys, consistent compressed prefixes, exact size).
"""

from hypothesis import example, given, settings, strategies as st

from repro.art import AdaptiveRadixTree, encode_str, encode_u64
from repro.art.nodes import Leaf
from repro.durability.checkpoint import restore_tree
from repro.errors import DuplicateKeyError, KeyNotFoundError

# Fixed-width keys are prefix-free by construction.
u64_keys = st.integers(min_value=0, max_value=2**64 - 1).map(encode_u64)
# Skewed small universe to force collisions, growth and shrink churn.
small_keys = st.integers(min_value=0, max_value=400).map(encode_u64)
str_keys = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
).map(encode_str)


@given(st.lists(u64_keys, unique=True))
@settings(max_examples=60, deadline=None)
def test_insert_then_search_everything(keys):
    tree = AdaptiveRadixTree()
    for i, key in enumerate(keys):
        tree.insert(key, i)
    for i, key in enumerate(keys):
        assert tree.search(key) == i
    assert len(tree) == len(keys)
    tree.validate()


@given(st.lists(str_keys, unique=True))
@settings(max_examples=60, deadline=None)
def test_string_keys_round_trip(keys):
    tree = AdaptiveRadixTree()
    for i, key in enumerate(keys):
        tree.insert(key, i)
    for i, key in enumerate(keys):
        assert tree.search(key) == i
    tree.validate()


@given(st.lists(u64_keys, unique=True, min_size=1))
@settings(max_examples=60, deadline=None)
def test_items_sorted(keys):
    tree = AdaptiveRadixTree()
    for key in keys:
        tree.insert(key, None)
    assert [k for k, _ in tree.items()] == sorted(keys)
    assert tree.minimum()[0] == min(keys)
    assert tree.maximum()[0] == max(keys)


@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "update", "get"]), small_keys),
        max_size=200,
    )
)
@settings(max_examples=80, deadline=None)
def test_matches_reference_dict_under_mixed_ops(ops):
    tree = AdaptiveRadixTree()
    reference = {}
    for action, key in ops:
        if action == "insert":
            if key in reference:
                try:
                    tree.insert(key, "x")
                    raise AssertionError("expected DuplicateKeyError")
                except DuplicateKeyError:
                    pass
            else:
                tree.insert(key, "x")
                reference[key] = "x"
        elif action == "delete":
            if key in reference:
                assert tree.delete(key) == reference.pop(key)
            else:
                try:
                    tree.delete(key)
                    raise AssertionError("expected KeyNotFoundError")
                except KeyNotFoundError:
                    pass
        elif action == "update":
            if key in reference:
                tree.update(key, "y")
                reference[key] = "y"
            else:
                try:
                    tree.update(key, "y")
                    raise AssertionError("expected KeyNotFoundError")
                except KeyNotFoundError:
                    pass
        else:
            assert tree.get(key, None) == reference.get(key, None)
    assert len(tree) == len(reference)
    assert dict(tree.items()) == reference
    tree.validate()


@given(st.lists(small_keys, unique=True), st.data())
@settings(max_examples=60, deadline=None)
def test_delete_half_keeps_other_half(keys, data):
    tree = AdaptiveRadixTree()
    for key in keys:
        tree.insert(key, key)
    to_delete = set(
        data.draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    )
    for key in to_delete:
        tree.delete(key)
    for key in keys:
        if key in to_delete:
            assert key not in tree
        else:
            assert tree.search(key) == key
    tree.validate()


@given(
    st.lists(u64_keys, unique=True, min_size=1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_range_scan_matches_filter(keys, a, b):
    low, high = (encode_u64(min(a, b)), encode_u64(max(a, b)))
    tree = AdaptiveRadixTree()
    for key in keys:
        tree.insert(key, None)
    got = [k for k, _ in tree.range_scan(low, high)]
    assert got == sorted(k for k in keys if low <= k <= high)


@given(st.lists(small_keys, unique=True, min_size=1))
@settings(max_examples=40, deadline=None)
def test_upsert_idempotent(keys):
    tree = AdaptiveRadixTree()
    for key in keys:
        assert tree.upsert(key, 1) is True
    for key in keys:
        assert tree.upsert(key, 2) is False
    assert all(v == 2 for _, v in tree.items())
    assert len(tree) == len(keys)


@given(st.lists(small_keys, unique=True))
@settings(max_examples=40, deadline=None)
def test_allocation_accounting_balances(keys):
    tree = AdaptiveRadixTree()
    for key in keys:
        tree.insert(key, None)
    for key in keys:
        tree.delete(key)
    # Every allocated node must eventually be freed when the tree empties.
    assert all(count == 0 for count in tree.node_counts().values())
    assert tree.allocator.live_bytes == 0


def walk_counts(tree):
    """Node census by a recursive walk from the root (the reference)."""
    counts = {"N4": 0, "N16": 0, "N48": 0, "N256": 0, "Leaf": 0}

    def walk(node):
        counts[node.kind] += 1
        if not isinstance(node, Leaf):
            for _, child in node.children_items():
                walk(child)

    if tree.root is not None:
        walk(tree.root)
    return counts


@given(
    n_loaded=st.integers(min_value=0, max_value=300),
    churn=st.lists(st.tuples(st.booleans(), small_keys), max_size=120),
)
@example(n_loaded=300, churn=[])
@settings(max_examples=40, deadline=None)
def test_node_counts_match_a_tree_walk(n_loaded, churn):
    # Consecutive u64 keys share one parent up to 256 children: loading
    # and draining them walks every node kind through grow and shrink.
    tree = AdaptiveRadixTree()
    for i in range(n_loaded):
        tree.insert(encode_u64(i), i)
    assert tree.node_counts() == walk_counts(tree)
    for insert, key in churn:
        if insert:
            tree.upsert(key, 0)
        else:
            try:
                tree.delete(key)
            except KeyNotFoundError:
                pass
        assert tree.node_counts() == walk_counts(tree)
    restored = restore_tree(list(tree.items()))
    assert restored.node_counts() == walk_counts(restored)
    for key in sorted(tree.keys(), reverse=True):
        tree.delete(key)
        assert tree.node_counts() == walk_counts(tree)
