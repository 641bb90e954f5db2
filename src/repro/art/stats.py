"""Instrumentation counters for the ART substrate.

Two levels of accounting feed the paper's figures:

* :class:`TreeStats` — cumulative counters on a tree (every touch since the
  last ``reset``).  They back the motivation study: redundant traversed
  nodes (Fig. 2b), cacheline utilisation (Fig. 2c), and the partial-key-
  match totals of Fig. 8.
* :class:`TraversalRecord` — the trace of a *single* operation: the node
  path it walked, which node it ultimately operated on, and that node's
  parent.  Engines consume these to model contention (two concurrent ops
  writing the same node), and DCART consumes them to build shortcuts
  (``<Key_ID, Addr_Target, Addr_Parent>``).

A *partial-key match* is counted per inner node descended through — one
child lookup per node — plus one per compressed-prefix byte compared,
matching how the paper counts the work that traversal performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

CACHE_LINE_BYTES = 64


def lines_for(size_bytes: int, line_bytes: int = CACHE_LINE_BYTES) -> int:
    """Number of cache lines an object of ``size_bytes`` spans (ceil)."""
    return -(-size_bytes // line_bytes)


@dataclass
class TreeStats:
    """Cumulative access counters for one tree."""

    nodes_visited: int = 0
    partial_key_matches: int = 0
    prefix_bytes_compared: int = 0
    leaf_accesses: int = 0
    bytes_fetched: int = 0
    bytes_used: int = 0
    node_allocations: int = 0
    node_frees: int = 0
    node_growths: int = 0
    node_shrinks: int = 0
    path_splits: int = 0
    path_merges: int = 0

    def reset(self) -> None:
        """Zero every counter (allocation counters included)."""
        self.nodes_visited = 0
        self.partial_key_matches = 0
        self.prefix_bytes_compared = 0
        self.leaf_accesses = 0
        self.bytes_fetched = 0
        self.bytes_used = 0
        self.node_allocations = 0
        self.node_frees = 0
        self.node_growths = 0
        self.node_shrinks = 0
        self.path_splits = 0
        self.path_merges = 0

    @property
    def cacheline_utilisation(self) -> float:
        """Fraction of fetched bytes that traversal actually consumed.

        The paper reports ~20.2 % on average for operation-centric
        baselines (Fig. 2c): a descent needs one key byte and one 8-byte
        pointer from each 64-byte-plus node it touches.
        """
        if self.bytes_fetched == 0:
            return 0.0
        return self.bytes_used / self.bytes_fetched

    def snapshot(self) -> "TreeStats":
        """Return an independent copy of the current counter values."""
        clone = TreeStats()
        for name in vars(self):
            setattr(clone, name, getattr(self, name))
        return clone

    def delta(self, earlier: "TreeStats") -> "TreeStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        diff = TreeStats()
        for name in vars(diff):
            if isinstance(getattr(diff, name), int):
                setattr(diff, name, getattr(self, name) - getattr(earlier, name))
        return diff


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
    partial_key_matches: int = 0
    prefix_bytes_compared: int = 0
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

    def total_matches(self) -> int:
        """Partial-key matches including compressed-prefix comparisons."""
        return self.partial_key_matches + self.prefix_bytes_compared
