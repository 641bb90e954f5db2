"""Per-operation traversal records for the ART substrate.

:class:`TraversalRecord` is the trace of a *single* operation: the node
path it walked (one :class:`NodeTouch` per node), which node it ultimately
operated on, and that node's parent.  Engines consume these to model
contention (two concurrent ops writing the same node), and DCART consumes
them to build shortcuts (``<Key_ID, Addr_Target, Addr_Parent>``).

The tree keeps no other books.  Every figure reads a
:class:`~repro.engines.base.RunResult`, which each engine prices from
``touches``: a partial-key match is one inner-node touch (one child
lookup per node descended through), and bytes fetched and used come from
each touch's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

CACHE_LINE_BYTES = 64


def lines_for(size_bytes: int, line_bytes: int = CACHE_LINE_BYTES) -> int:
    """Number of cache lines an object of ``size_bytes`` spans (ceil)."""
    return -(-size_bytes // line_bytes)


class NodeTouch(NamedTuple):
    """One node access within a traversal.

    A named tuple rather than a dataclass: one is created per node
    visited (millions per run), and tuple construction is the cheapest
    record CPython offers while keeping named field access.
    """

    node_id: int
    address: int
    size_bytes: int
    used_bytes: int
    kind: str  # "N4" | "N16" | "N48" | "N256" | "Leaf"

    @property
    def fetch_bytes(self) -> int:
        """Bytes a descent actually pulls from this node.

        A descent does not stream the whole node: it reads the header
        (+compressed prefix) and the one key/pointer slot it indexes —
        i.e. one or two cache lines even for an N256.  This is exactly
        why the paper's Fig. 2(c) finds only ~20 % of each *fetched
        line* useful: the fetch granularity is the line, the useful
        payload is ``used_bytes``.
        """
        return min(self.size_bytes, 16 + self.used_bytes)

    @property
    def fetch_lines(self) -> int:
        return lines_for(self.fetch_bytes)


@dataclass(slots=True)
class TraversalRecord:
    """The trace of a single tree operation.

    ``target_node_id``/``target_address`` identify the node the operation
    ultimately read or modified (the leaf's parent for point ops — the node
    a lock would protect under ROWEX), and ``parent_*`` its parent, which
    DCART's Shortcut_Table stores alongside it.
    """

    op_kind: str = ""
    key: bytes = b""
    touches: List[NodeTouch] = field(default_factory=list)
    structure_modified: bool = False
    node_type_changed: bool = False
    outcome: str = ""  # "hit" | "miss" | "inserted" | "updated" | "deleted"
    target_node_id: Optional[int] = None
    target_address: Optional[int] = None
    parent_address: Optional[int] = None

    @property
    def depth(self) -> int:
        """Number of nodes touched on the walk (inner nodes + leaf)."""
        return len(self.touches)

    @property
    def inner_nodes_visited(self) -> int:
        return sum(1 for t in self.touches if t.kind != "Leaf")

    @property
    def bytes_fetched(self) -> int:
        return sum(t.fetch_lines * CACHE_LINE_BYTES for t in self.touches)

    @property
    def bytes_used(self) -> int:
        return sum(t.used_bytes for t in self.touches)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(t.node_id for t in self.touches)
