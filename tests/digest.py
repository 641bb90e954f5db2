"""A short stable hash of a tree's structure, for "same tree" assertions."""

import hashlib
from typing import Optional

from repro.art.nodes import Child, Leaf
from repro.art.tree import AdaptiveRadixTree


def structure_digest(tree: AdaptiveRadixTree, include_values: bool = False) -> str:
    """A short stable hash of the tree's structure (and optionally values).

    Two trees with identical node kinds, prefixes, partial keys, and
    leaf keys produce the same digest regardless of the order their
    keys were inserted in.
    """
    hasher = hashlib.sha256()

    def walk(node: Optional[Child]) -> None:
        if node is None:
            hasher.update(b"<nil>")
            return
        if isinstance(node, Leaf):
            hasher.update(b"L" + node.key)
            if include_values:
                hasher.update(repr(node.value).encode())
            return
        hasher.update(node.kind.encode() + node.prefix)
        for byte, child in node.children_items():
            hasher.update(bytes([byte]))
            walk(child)

    walk(tree.root)
    return hasher.hexdigest()[:16]
