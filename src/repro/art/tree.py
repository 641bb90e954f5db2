"""The Adaptive Radix Tree (Leis et al. [8]), fully instrumented.

Functional behaviour: a sorted map from binary-comparable ``bytes`` keys to
arbitrary values with point operations (insert / search / update / delete),
ordered range scans, and min/max.  Structural behaviour follows the paper:

* **Adaptive nodes** — inner nodes grow N4 → N16 → N48 → N256 when full and
  shrink back when deletion leaves them underfull.
* **Path compression** (pessimistic) — every inner node stores the full
  compressed prefix leading to it; single-child chains never exist.
* **Lazy expansion** — keys are stored in leaves; a leaf is only split
  into an inner node when a second key shares its path.

Keys within one tree must be *prefix-free* (no key a strict prefix of
another).  The encoders in :mod:`repro.art.keys` guarantee this (fixed
width, or NUL termination); the tree raises :class:`TreeError` if it is
violated, rather than corrupting the structure.

Instrumentation: while a recorder is installed (see
:func:`repro.art.traversal.record_traversal`), every node access appends a
:class:`~repro.art.stats.NodeTouch` to a per-operation
:class:`~repro.art.stats.TraversalRecord`.  Without one the tree keeps no
books at all.  The engines and the DCART accelerator model are built
entirely on these records.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.art.keys import common_prefix_length
from repro.art.layout import NodeAllocator
from repro.art.nodes import (
    Child,
    HEADER_BYTES,
    InnerNode,
    Leaf,
    Node,
    Node4,
    POINTER_BYTES,
)
from repro.art.stats import NodeTouch, TraversalRecord
from repro.errors import DuplicateKeyError, KeyNotFoundError, TreeError

# NodeTouch's own __new__ is tuple.__new__(cls, (fields...)) behind a
# Python-level call; the walk loops build their touches directly with it.
_new_touch = tuple.__new__


class AdaptiveRadixTree:
    """An instrumented ART mapping ``bytes`` keys to values."""

    def __init__(self, allocator: Optional[NodeAllocator] = None):
        self.root: Optional[Child] = None
        self.allocator = allocator if allocator is not None else NodeAllocator()
        self._size = 0
        self._next_node_id = 0
        self._recorder: Optional[TraversalRecord] = None
        # Maps synthetic address -> node, so shortcut-addressed fetches
        # (DCART's Index_Shortcut stage) resolve the way an HBM read would.
        self._by_address: dict = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _register(self, node: Node) -> Node:
        node.node_id = self._next_node_id
        self._next_node_id += 1
        node.address = self.allocator.allocate(node.size_bytes)
        self._by_address[node.address] = node
        return node

    def _unregister(self, node: Node) -> None:
        self.allocator.free(node.size_bytes)
        self._by_address.pop(node.address, None)

    def node_at(self, address: int) -> Optional[Node]:
        """Resolve a synthetic address to its live node (or ``None``)."""
        return self._by_address.get(address)

    def _touch(self, node: Node) -> None:
        # Only a recorder reads a touch, so without one there is nothing
        # to compute.  The used/size formulas are switched on the node
        # kind instead of dispatched through used_bytes_for_descent/
        # size_bytes: for a Leaf both reduce to len(key) arithmetic.
        recorder = self._recorder
        if recorder is None:
            return
        kind = node.kind
        if kind == "Leaf":
            used = len(node.key) + POINTER_BYTES
            size = HEADER_BYTES + used
        else:
            used = len(node.prefix) + 1 + POINTER_BYTES
            size = node.size_bytes
        recorder.touches.append(
            _new_touch(NodeTouch, (node.node_id, node.address, size, used, kind))
        )

    def _note(self, **fields) -> None:
        if self._recorder is None:
            return
        for name, value in fields.items():
            setattr(self._recorder, name, value)

    def _note_target(self, target: Optional[Node], parent: Optional[Node]) -> None:
        if self._recorder is None:
            return
        self._recorder.target_node_id = target.node_id if target else None
        self._recorder.target_address = target.address if target else None
        self._recorder.parent_address = parent.address if parent else None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self.get(key, _SENTINEL) is not _SENTINEL

    def is_empty(self) -> bool:
        return self.root is None

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------

    def search(self, key: bytes) -> object:
        """Return the value stored under ``key``.

        Raises :class:`KeyNotFoundError` when the key is absent.
        """
        value = self.get(key, _SENTINEL)
        if value is _SENTINEL:
            raise KeyNotFoundError(key)
        return value

    def get(self, key: bytes, default: object = None) -> object:
        """Return the value under ``key`` or ``default`` when absent.

        Hot path (one call per simulated read), with the recorder read
        once up front.
        """
        if type(key) is not bytes or not key:
            self._check_key(key)
        node = self.root
        parent: Optional[Node] = None
        depth = 0
        recorder = self._recorder
        klen = len(key)
        # _touch is expanded in place: this and _upsert are the two walk
        # loops behind every simulated operation, and the helper-call
        # overhead alone showed on profiles.  The expansions follow
        # _touch exactly; without a recorder the walk only descends.
        while isinstance(node, InnerNode):
            prefix = node.prefix
            if recorder is not None:
                recorder.touches.append(
                    _new_touch(
                        NodeTouch,
                        (
                            node.node_id,
                            node.address,
                            node.size_bytes,
                            len(prefix) + 9,  # prefix + key byte + pointer
                            node.kind,
                        ),
                    )
                )
            if prefix:
                if not key.startswith(prefix, depth):
                    if recorder is not None:
                        recorder.outcome = "miss"
                    self._note_target(node, parent)
                    return default
                depth += len(prefix)
            if depth >= klen:
                if recorder is not None:
                    recorder.outcome = "miss"
                self._note_target(node, parent)
                return default
            child = node.find_child(key[depth])
            if child is None:
                if recorder is not None:
                    recorder.outcome = "miss"
                self._note_target(node, parent)
                return default
            parent = node
            node = child
            depth += 1
        if node is None:
            if recorder is not None:
                recorder.outcome = "miss"
            return default
        if recorder is not None:
            used = len(node.key) + 8
            # A Leaf's size (header + key + pointer) is 16 + used.
            recorder.touches.append(
                _new_touch(
                    NodeTouch, (node.node_id, node.address, 16 + used, used, "Leaf")
                )
            )
        self._note_target(node, parent)
        if node.key == key:
            if recorder is not None:
                recorder.outcome = "hit"
            return node.value
        if recorder is not None:
            recorder.outcome = "miss"
        return default

    # ------------------------------------------------------------------
    # insert / update
    # ------------------------------------------------------------------

    def insert(self, key: bytes, value: object) -> None:
        """Insert a *new* key; raises :class:`DuplicateKeyError` if present."""
        if not self._upsert(key, value, allow_update=False):
            raise DuplicateKeyError(key)

    def update(self, key: bytes, value: object) -> None:
        """Overwrite an *existing* key; raises :class:`KeyNotFoundError`."""
        self._check_key(key)
        node = self.root
        parent: Optional[Node] = None
        depth = 0
        while isinstance(node, InnerNode):
            self._touch(node)
            prefix = node.prefix
            if prefix:
                if not key.startswith(prefix, depth):
                    raise KeyNotFoundError(key)
                depth += len(prefix)
            if depth >= len(key):
                raise KeyNotFoundError(key)
            child = node.find_child(key[depth])
            if child is None:
                self._note(outcome="miss")
                self._note_target(node, parent)
                raise KeyNotFoundError(key)
            parent = node
            node = child
            depth += 1
        if node is None:
            raise KeyNotFoundError(key)
        self._touch(node)
        self._note_target(node, parent)
        if node.key != key:
            self._note(outcome="miss")
            raise KeyNotFoundError(key)
        node.value = value
        self._note(outcome="updated")

    def upsert(self, key: bytes, value: object) -> bool:
        """Insert or overwrite; returns ``True`` if the key was new."""
        return self._upsert(key, value, allow_update=True)

    def _upsert(self, key: bytes, value: object, allow_update: bool) -> bool:
        if type(key) is not bytes or not key:
            self._check_key(key)
        if self.root is None:
            leaf = Leaf(key, value)
            self._register(leaf)
            self.root = leaf
            self._size += 1
            self._touch(leaf)
            self._note(outcome="inserted", structure_modified=True)
            self._note_target(leaf, None)
            return True

        node = self.root
        parent: Optional[InnerNode] = None
        parent_byte = -1
        depth = 0
        recorder = self._recorder
        klen = len(key)

        # Same in-place expansion of _touch as in get() — this loop runs
        # once per simulated write and once per key of every tree build.
        while True:
            if isinstance(node, Leaf):
                if recorder is not None:
                    used = len(node.key) + 8
                    # A Leaf's size (header + key + pointer) is 16 + used.
                    recorder.touches.append(
                        _new_touch(
                            NodeTouch,
                            (node.node_id, node.address, 16 + used, used, "Leaf"),
                        )
                    )
                if node.key == key:
                    if not allow_update:
                        if recorder is not None:
                            recorder.outcome = "duplicate"
                        self._note_target(node, parent)
                        return False
                    node.value = value
                    if recorder is not None:
                        recorder.outcome = "updated"
                    self._note_target(node, parent)
                    return False
                self._split_leaf(node, parent, parent_byte, key, value, depth)
                return True

            prefix = node.prefix
            if recorder is not None:
                recorder.touches.append(
                    _new_touch(
                        NodeTouch,
                        (
                            node.node_id,
                            node.address,
                            node.size_bytes,
                            len(prefix) + 9,  # prefix + key byte + pointer
                            node.kind,
                        ),
                    )
                )
            if prefix:
                if not key.startswith(prefix, depth):
                    common = common_prefix_length(prefix, key[depth:])
                    self._split_prefix(node, parent, parent_byte, key, value, depth, common)
                    return True
                depth += len(prefix)
            if depth >= klen:
                raise TreeError(
                    f"key {key.hex()} is a prefix of an existing key; "
                    "keys in one tree must be prefix-free"
                )
            byte = key[depth]
            child = node.find_child(byte)
            if child is None:
                node = self._grow_if_full(node, parent, parent_byte)
                leaf = Leaf(key, value)
                self._register(leaf)
                node.add_child(byte, leaf)
                self._size += 1
                if recorder is not None:
                    recorder.outcome = "inserted"
                    recorder.structure_modified = True
                self._note_target(node, parent)
                return True
            parent = node
            parent_byte = byte
            node = child
            depth += 1

    def _grow_if_full(
        self,
        node: InnerNode,
        parent: Optional[InnerNode],
        parent_byte: int,
    ) -> InnerNode:
        """Replace ``node`` with the next larger type if it is full."""
        if not node.is_full:
            return node
        bigger = node.grow()
        self._register(bigger)
        self._unregister(node)
        self._replace(node, bigger, parent, parent_byte)
        self._note(node_type_changed=True)
        return bigger

    def _replace(
        self,
        old: Child,
        new: Child,
        parent: Optional[InnerNode],
        parent_byte: int,
    ) -> None:
        if parent is None:
            if self.root is not old:
                raise TreeError("replace: stale parent linkage")
            self.root = new
        else:
            parent.replace_child(parent_byte, new)

    def _split_leaf(
        self,
        leaf: Leaf,
        parent: Optional[InnerNode],
        parent_byte: int,
        key: bytes,
        value: object,
        depth: int,
    ) -> None:
        """Lazy-expansion split: one leaf becomes an N4 with two leaves."""
        existing = leaf.key
        common = common_prefix_length(key[depth:], existing[depth:])
        split_at = depth + common
        if split_at >= len(key) or split_at >= len(existing):
            raise TreeError(
                f"keys {key.hex()} and {existing.hex()} are not prefix-free"
            )
        inner = Node4()
        inner.prefix = key[depth:split_at]
        self._register(inner)
        new_leaf = Leaf(key, value)
        self._register(new_leaf)
        inner.add_child(existing[split_at], leaf)
        inner.add_child(key[split_at], new_leaf)
        self._replace(leaf, inner, parent, parent_byte)
        self._size += 1
        self._note(outcome="inserted", structure_modified=True)
        self._note_target(inner, parent)

    def _split_prefix(
        self,
        node: InnerNode,
        parent: Optional[InnerNode],
        parent_byte: int,
        key: bytes,
        value: object,
        depth: int,
        common: int,
    ) -> None:
        """Path-compression split: the compressed prefix diverges."""
        split_at = depth + common
        if split_at >= len(key):
            raise TreeError(
                f"key {key.hex()} is a prefix of an existing path; "
                "keys in one tree must be prefix-free"
            )
        new_parent = Node4()
        new_parent.prefix = node.prefix[:common]
        self._register(new_parent)
        edge_old = node.prefix[common]
        node.prefix = node.prefix[common + 1 :]
        new_leaf = Leaf(key, value)
        self._register(new_leaf)
        new_parent.add_child(edge_old, node)
        new_parent.add_child(key[split_at], new_leaf)
        self._replace(node, new_parent, parent, parent_byte)
        self._size += 1
        self._note(outcome="inserted", structure_modified=True, node_type_changed=True)
        self._note_target(new_parent, parent)

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def delete(self, key: bytes) -> object:
        """Remove ``key`` and return its value.

        Raises :class:`KeyNotFoundError` when absent.  Applies path
        merging (an N4 left with one child collapses into it) and node
        shrinking (N256→N48→N16→N4) to keep the structure canonical.
        """
        self._check_key(key)
        if self.root is None:
            raise KeyNotFoundError(key)

        if isinstance(self.root, Leaf):
            leaf = self.root
            self._touch(leaf)
            if leaf.key != key:
                raise KeyNotFoundError(key)
            self.root = None
            self._unregister(leaf)
            self._size -= 1
            self._note(outcome="deleted", structure_modified=True)
            self._note_target(leaf, None)
            return leaf.value

        node = self.root
        parent: Optional[InnerNode] = None
        parent_byte = -1
        depth = 0

        while isinstance(node, InnerNode):
            self._touch(node)
            prefix = node.prefix
            if prefix:
                if not key.startswith(prefix, depth):
                    raise KeyNotFoundError(key)
                depth += len(prefix)
            if depth >= len(key):
                raise KeyNotFoundError(key)
            byte = key[depth]
            child = node.find_child(byte)
            if child is None:
                raise KeyNotFoundError(key)
            if isinstance(child, Leaf):
                self._touch(child)
                if child.key != key:
                    raise KeyNotFoundError(key)
                self._note_target(node, parent)
                return self._remove_leaf(
                    child, byte, node, parent, parent_byte
                )
            parent = node
            parent_byte = byte
            node = child
            depth += 1
        raise KeyNotFoundError(key)

    def _remove_leaf(
        self,
        leaf: Leaf,
        leaf_byte: int,
        node: InnerNode,
        parent: Optional[InnerNode],
        parent_byte: int,
    ) -> object:
        node.remove_child(leaf_byte)
        self._unregister(leaf)
        self._size -= 1
        self._note(outcome="deleted", structure_modified=True)

        if isinstance(node, Node4) and node.num_children == 1:
            # Path merge: fold this N4 into its only remaining child.
            edge, only = node.only_child()
            if isinstance(only, InnerNode):
                only.prefix = node.prefix + bytes([edge]) + only.prefix
            self._replace(node, only, parent, parent_byte)
            self._unregister(node)
            self._note(node_type_changed=True)
        elif not isinstance(node, Node4) and node.is_underfull:
            smaller = node.shrink()
            self._register(smaller)
            self._unregister(node)
            self._replace(node, smaller, parent, parent_byte)
            self._note(node_type_changed=True)
        return leaf.value

    # ------------------------------------------------------------------
    # ordered iteration
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[bytes, object]]:
        """Yield all ``(key, value)`` pairs in ascending key order."""
        for leaf in self.leaves():
            yield leaf.key, leaf.value

    def keys(self) -> Iterator[bytes]:
        for key, _ in self.items():
            yield key

    def leaves(self) -> List[Leaf]:
        """Every leaf in ascending key order, from one walk of the tree."""
        out: List[Leaf] = []
        stack: List[Child] = [] if self.root is None else [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.append(node)
            else:
                stack.extend(reversed(node.child_nodes()))
        return out

    def range_scan(
        self, low: bytes, high: bytes
    ) -> Iterator[Tuple[bytes, object]]:
        """Yield pairs with ``low <= key <= high`` in ascending order.

        Subtrees are pruned by comparing the accumulated path bytes with
        the bounds, so a narrow scan touches only the relevant fringe —
        the property that makes range indexes prefer trees to hashes
        (paper §V).
        """
        if low > high:
            return
        yield from self._scan(self.root, b"", low, high)

    def _scan(
        self,
        node: Optional[Child],
        accumulated: bytes,
        low: bytes,
        high: bytes,
    ) -> Iterator[Tuple[bytes, object]]:
        if node is None:
            return
        if isinstance(node, Leaf):
            self._touch(node)
            if low <= node.key <= high:
                yield node.key, node.value
            return
        self._touch(node)
        accumulated = accumulated + node.prefix
        # Every key below here starts with `accumulated`; prune when the
        # whole covered interval falls outside [low, high].
        if accumulated > high:
            return
        pad = max(len(low), len(high)) + 8
        if accumulated + b"\xff" * pad < low:
            return
        for byte, child in node.children_items():
            yield from self._scan(child, accumulated + bytes([byte]), low, high)

    def minimum(self) -> Tuple[bytes, object]:
        """Return the smallest ``(key, value)`` pair."""
        return self._edge_leaf(first=True)

    def maximum(self) -> Tuple[bytes, object]:
        """Return the largest ``(key, value)`` pair."""
        return self._edge_leaf(first=False)

    def _edge_leaf(self, first: bool) -> Tuple[bytes, object]:
        if self.root is None:
            raise KeyNotFoundError(b"")
        node = self.root
        while isinstance(node, InnerNode):
            self._touch(node)
            items = list(node.children_items())
            node = items[0][1] if first else items[-1][1]
        self._touch(node)
        return node.key, node.value

    # ------------------------------------------------------------------
    # structure inspection
    # ------------------------------------------------------------------

    def height(self) -> int:
        """Longest root-to-leaf path, in nodes (0 for an empty tree)."""
        def walk(node: Optional[Child]) -> int:
            if node is None:
                return 0
            if isinstance(node, Leaf):
                return 1
            return 1 + max(walk(child) for _, child in node.children_items())

        return walk(self.root)

    def node_counts(self) -> dict:
        """Count live nodes by kind (``{"N4": ..., "Leaf": ...}``).

        Counted over the address registry, which holds exactly the live
        nodes: every allocation registers a node, every free drops it.
        """
        counts = {"N4": 0, "N16": 0, "N48": 0, "N256": 0, "Leaf": 0}
        for node in self._by_address.values():
            counts[node.kind] += 1
        return counts

    def memory_footprint(self) -> int:
        """Total ``size_bytes`` of all live nodes."""
        total = 0

        def walk(node: Optional[Child]) -> None:
            nonlocal total
            if node is None:
                return
            total += node.size_bytes
            if isinstance(node, InnerNode):
                for _, child in node.children_items():
                    walk(child)

        walk(self.root)
        return total

    def validate(self) -> None:
        """Check every structural invariant; raises :class:`TreeError`.

        Used by the property-based tests: after any operation sequence the
        tree must be canonical (no single-child N4 chains, no underfull or
        overfull nodes, sorted partial keys, prefixes consistent with
        every leaf underneath).
        """
        seen = 0

        def walk(node: Child, accumulated: bytes, is_root: bool) -> None:
            nonlocal seen
            if isinstance(node, Leaf):
                seen += 1
                if not node.key.startswith(accumulated):
                    raise TreeError(
                        f"leaf {node.key.hex()} inconsistent with path "
                        f"{accumulated.hex()}"
                    )
                return
            count = node.num_children
            if count > node.capacity:
                raise TreeError(f"{node!r} overfull")
            if count < 2 and isinstance(node, Node4):
                raise TreeError(f"{node!r} should have been path-merged")
            if count == 0:
                raise TreeError(f"{node!r} has no children")
            items = list(node.children_items())
            bytes_seen = [b for b, _ in items]
            if bytes_seen != sorted(bytes_seen):
                raise TreeError(f"{node!r} children out of order")
            if len(set(bytes_seen)) != len(bytes_seen):
                raise TreeError(f"{node!r} duplicate partial keys")
            path = accumulated + node.prefix
            for byte, child in items:
                walk(child, path + bytes([byte]), False)

        if self.root is not None:
            walk(self.root, b"", True)
        if seen != self._size:
            raise TreeError(f"size mismatch: counted {seen}, recorded {self._size}")

    # ------------------------------------------------------------------

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TreeError(f"keys must be bytes, got {type(key).__name__}")
        if len(key) == 0:
            raise TreeError("keys must be non-empty")


_SENTINEL = object()
