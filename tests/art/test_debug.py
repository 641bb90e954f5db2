"""Tests for the structure digest the engine-agreement test relies on."""

import pytest

from repro.art import AdaptiveRadixTree
from tests.digest import structure_digest


@pytest.fixture
def tree():
    t = AdaptiveRadixTree()
    t.insert(b"aaaa", 1)
    t.insert(b"aaab", 2)
    return t


class TestDigest:
    def test_same_content_same_digest(self, tree):
        other = AdaptiveRadixTree()
        other.insert(b"aaab", 2)
        other.insert(b"aaaa", 1)
        assert structure_digest(tree) == structure_digest(other)

    def test_different_structure_different_digest(self, tree):
        other = AdaptiveRadixTree()
        other.insert(b"aaaa", 1)
        other.insert(b"aabb", 2)
        assert structure_digest(tree) != structure_digest(other)

    def test_values_only_matter_when_requested(self, tree):
        other = AdaptiveRadixTree()
        other.insert(b"aaaa", 99)
        other.insert(b"aaab", 2)
        assert structure_digest(tree) == structure_digest(other)
        assert structure_digest(tree, include_values=True) != structure_digest(
            other, include_values=True
        )

    def test_empty_tree_digest_stable(self):
        assert structure_digest(AdaptiveRadixTree()) == structure_digest(
            AdaptiveRadixTree()
        )
