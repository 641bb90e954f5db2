"""Per-operation traversal recording.

The engines need, for every operation they simulate, the exact node path
the ART walked and the identity of the node the operation landed on.
:func:`record_traversal` installs a fresh
:class:`~repro.art.stats.TraversalRecord` on a tree for the duration of a
``with`` block; the tree's descent code fills it in.  Partial-key matches
are the record's ``inner_nodes_visited``: one child lookup per inner node.

    with record_traversal(tree, "read", key) as rec:
        value = tree.get(key)
    # rec.touches, rec.outcome, rec.target_node_id ... are set

Records nest safely (the previous recorder is restored on exit), and the
recorder is removed even when the operation raises — a failed insert still
produces a usable trace, because a real machine still paid for the walk.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.art.stats import TraversalRecord
from repro.art.tree import AdaptiveRadixTree


@contextlib.contextmanager
def record_traversal(
    tree: AdaptiveRadixTree, op_kind: str = "", key: bytes = b""
) -> Iterator[TraversalRecord]:
    """Attach a fresh :class:`TraversalRecord` to ``tree`` for one op."""
    record = TraversalRecord(op_kind=op_kind, key=bytes(key))
    previous = tree._recorder
    tree._recorder = record
    try:
        yield record
    finally:
        tree._recorder = previous
