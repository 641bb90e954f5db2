"""The four adaptive inner-node types of the ART, plus leaves.

Fig. 1(c) of the paper: an inner node holds a compressed path prefix and a
set of (partial-key byte → child) mappings in one of four layouts that
trade capacity for memory:

* :class:`Node4`   — up to 4 children; sorted parallel key/child arrays.
* :class:`Node16`  — up to 16 children; same layout (the hardware uses SIMD
  compare here, we use binary search — the *count* of key comparisons is
  what the simulators meter, via one partial-key match per node).
* :class:`Node48`  — up to 48 children; a 256-entry byte-indexed indirection
  array into a 48-slot child array.
* :class:`Node256` — a direct 256-entry child array.

Nodes *grow* to the next type when full and *shrink* when deletion drops
them below the smaller type's capacity, exactly as in Leis et al. [8].
``size_bytes`` mirrors a realistic C layout (16-byte header) because the
memory simulators bill cacheline fetches from it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import SimulationError

HEADER_BYTES = 16
POINTER_BYTES = 8
EMPTY_SLOT = 0xFF

Child = Union["InnerNode", "Leaf"]


class Node:
    """Common base: identity, synthetic address, compressed prefix."""

    __slots__ = ("node_id", "address", "prefix")

    kind = "Node"

    def __init__(self) -> None:
        self.node_id: int = -1
        self.address: int = -1
        self.prefix: bytes = b""

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def size_bytes(self) -> int:
        """Bytes the node occupies; a class constant on inner nodes,
        whose size depends only on their type."""
        raise NotImplementedError

    def used_bytes_for_descent(self) -> int:
        """Bytes a single descent actually consumes from this node.

        One prefix comparison (``prefix_len`` bytes), one partial-key byte
        and one child pointer — the quantity behind the ~20 % cacheline
        utilisation of Fig. 2(c).
        """
        return self.prefix_len + 1 + POINTER_BYTES


class Leaf(Node):
    """A leaf holds the complete key and its value."""

    __slots__ = ("key", "value")

    kind = "Leaf"

    def __init__(self, key: bytes, value: object) -> None:
        # The Node fields are set here rather than through
        # super().__init__(): one leaf is made per loaded key.
        self.node_id = -1
        self.address = -1
        self.prefix = b""
        self.key = key
        self.value = value

    @property
    def size_bytes(self) -> int:
        return HEADER_BYTES + len(self.key) + POINTER_BYTES

    def used_bytes_for_descent(self) -> int:
        return len(self.key) + POINTER_BYTES

    def __repr__(self) -> str:
        return f"Leaf(key={self.key.hex()}, id={self.node_id})"


class InnerNode(Node):
    """Base for the four adaptive layouts."""

    __slots__ = ()

    capacity = 0
    min_occupancy = 0  # below this, shrink to the previous type

    @property
    def num_children(self) -> int:
        raise NotImplementedError

    @property
    def is_full(self) -> bool:
        return self.num_children >= self.capacity

    @property
    def is_underfull(self) -> bool:
        return self.num_children < self.min_occupancy

    def find_child(self, byte: int) -> Optional[Child]:
        raise NotImplementedError

    def add_child(self, byte: int, child: Child) -> None:
        raise NotImplementedError

    def remove_child(self, byte: int) -> None:
        raise NotImplementedError

    def children_items(self) -> Iterator[Tuple[int, Child]]:
        """Yield ``(partial_key_byte, child)`` in ascending byte order."""
        raise NotImplementedError

    def child_nodes(self) -> List[Child]:
        """The children in ascending byte order, as a new list."""
        raise NotImplementedError

    def only_child(self) -> Tuple[int, Child]:
        """Return the single remaining ``(byte, child)`` pair."""
        items = list(self.children_items())
        if len(items) != 1:
            raise SimulationError(
                f"only_child() on node with {len(items)} children"
            )
        return items[0]

    def grow(self) -> "InnerNode":
        """Return a node of the next larger type with the same content."""
        raise NotImplementedError

    def shrink(self) -> "InnerNode":
        """Return a node of the next smaller type with the same content."""
        raise NotImplementedError

    def _copy_header_to(self, other: "InnerNode") -> "InnerNode":
        other.prefix = self.prefix
        return other

    def __repr__(self) -> str:
        return (
            f"{self.kind}(id={self.node_id}, children={self.num_children}, "
            f"prefix={self.prefix.hex()})"
        )


class _SortedArrayNode(InnerNode):
    """Shared implementation for N4 and N16: sorted parallel arrays."""

    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        super().__init__()
        self.keys: List[int] = []
        self.children: List[Child] = []

    @property
    def num_children(self) -> int:
        return len(self.keys)

    def _slot_of(self, byte: int) -> int:
        """Binary-search insertion point for ``byte`` in ``self.keys``."""
        return bisect_left(self.keys, byte)

    def find_child(self, byte: int) -> Optional[Child]:
        keys = self.keys
        slot = bisect_left(keys, byte)
        if slot < len(keys) and keys[slot] == byte:
            return self.children[slot]
        return None

    def add_child(self, byte: int, child: Child) -> None:
        if len(self.keys) >= self.capacity:
            raise SimulationError(f"add_child on full {self.kind}")
        slot = self._slot_of(byte)
        if slot < len(self.keys) and self.keys[slot] == byte:
            raise SimulationError(f"duplicate partial key {byte:#04x} in {self.kind}")
        self.keys.insert(slot, byte)
        self.children.insert(slot, child)

    def replace_child(self, byte: int, child: Child) -> None:
        slot = self._slot_of(byte)
        if slot >= len(self.keys) or self.keys[slot] != byte:
            raise SimulationError(f"replace_child: {byte:#04x} absent in {self.kind}")
        self.children[slot] = child

    def remove_child(self, byte: int) -> None:
        slot = self._slot_of(byte)
        if slot >= len(self.keys) or self.keys[slot] != byte:
            raise SimulationError(f"remove_child: {byte:#04x} absent in {self.kind}")
        del self.keys[slot]
        del self.children[slot]

    def children_items(self) -> Iterator[Tuple[int, Child]]:
        return iter(list(zip(self.keys, self.children)))

    def child_nodes(self) -> List[Child]:
        return self.children[:]


class Node4(_SortedArrayNode):
    kind = "N4"
    capacity = 4
    min_occupancy = 2  # a 1-child N4 is collapsed by path merging instead
    size_bytes = HEADER_BYTES + capacity * (1 + POINTER_BYTES)

    def grow(self) -> "Node16":
        bigger = Node16()
        self._copy_header_to(bigger)
        bigger.keys = list(self.keys)
        bigger.children = list(self.children)
        return bigger

    def shrink(self) -> "InnerNode":
        raise SimulationError("N4 is the smallest inner node")


class Node16(_SortedArrayNode):
    kind = "N16"
    capacity = 16
    min_occupancy = 4
    size_bytes = HEADER_BYTES + capacity * (1 + POINTER_BYTES)

    def grow(self) -> "Node48":
        bigger = Node48()
        self._copy_header_to(bigger)
        for byte, child in self.children_items():
            bigger.add_child(byte, child)
        return bigger

    def shrink(self) -> "Node4":
        smaller = Node4()
        self._copy_header_to(smaller)
        smaller.keys = list(self.keys)
        smaller.children = list(self.children)
        if smaller.num_children > smaller.capacity:
            raise SimulationError("shrink of overfull N16")
        return smaller


class Node48(InnerNode):
    """256-entry index bytes pointing into a 48-slot child array."""

    __slots__ = ("child_index", "children", "_count", "_free_slots")

    kind = "N48"
    capacity = 48
    min_occupancy = 13
    size_bytes = HEADER_BYTES + 256 + capacity * POINTER_BYTES

    def __init__(self) -> None:
        super().__init__()
        self.child_index = bytearray([EMPTY_SLOT] * 256)
        self.children: List[Optional[Child]] = [None] * self.capacity
        self._count = 0
        self._free_slots: List[int] = list(range(self.capacity - 1, -1, -1))

    @property
    def num_children(self) -> int:
        return self._count

    def find_child(self, byte: int) -> Optional[Child]:
        slot = self.child_index[byte]
        if slot == EMPTY_SLOT:
            return None
        return self.children[slot]

    def add_child(self, byte: int, child: Child) -> None:
        if self.child_index[byte] != EMPTY_SLOT:
            raise SimulationError(f"duplicate partial key {byte:#04x} in N48")
        if not self._free_slots:
            raise SimulationError("add_child on full N48")
        slot = self._free_slots.pop()
        self.child_index[byte] = slot
        self.children[slot] = child
        self._count += 1

    def replace_child(self, byte: int, child: Child) -> None:
        slot = self.child_index[byte]
        if slot == EMPTY_SLOT:
            raise SimulationError(f"replace_child: {byte:#04x} absent in N48")
        self.children[slot] = child

    def remove_child(self, byte: int) -> None:
        slot = self.child_index[byte]
        if slot == EMPTY_SLOT:
            raise SimulationError(f"remove_child: {byte:#04x} absent in N48")
        self.child_index[byte] = EMPTY_SLOT
        self.children[slot] = None
        self._free_slots.append(slot)
        self._count -= 1

    def children_items(self) -> Iterator[Tuple[int, Child]]:
        for byte in range(256):
            slot = self.child_index[byte]
            if slot != EMPTY_SLOT:
                child = self.children[slot]
                assert child is not None
                yield byte, child

    def child_nodes(self) -> List[Child]:
        children = self.children
        return [children[slot] for slot in self.child_index if slot != EMPTY_SLOT]

    def grow(self) -> "Node256":
        bigger = Node256()
        self._copy_header_to(bigger)
        for byte, child in self.children_items():
            bigger.add_child(byte, child)
        return bigger

    def shrink(self) -> "Node16":
        smaller = Node16()
        self._copy_header_to(smaller)
        for byte, child in self.children_items():
            smaller.add_child(byte, child)
        return smaller


class Node256(InnerNode):
    """Direct 256-entry child array (the traditional radix-tree node)."""

    __slots__ = ("children", "_count")

    kind = "N256"
    capacity = 256
    min_occupancy = 37
    size_bytes = HEADER_BYTES + capacity * POINTER_BYTES

    def __init__(self) -> None:
        super().__init__()
        self.children: List[Optional[Child]] = [None] * 256
        self._count = 0

    @property
    def num_children(self) -> int:
        return self._count

    def find_child(self, byte: int) -> Optional[Child]:
        return self.children[byte]

    def add_child(self, byte: int, child: Child) -> None:
        if self.children[byte] is not None:
            raise SimulationError(f"duplicate partial key {byte:#04x} in N256")
        self.children[byte] = child
        self._count += 1

    def replace_child(self, byte: int, child: Child) -> None:
        if self.children[byte] is None:
            raise SimulationError(f"replace_child: {byte:#04x} absent in N256")
        self.children[byte] = child

    def remove_child(self, byte: int) -> None:
        if self.children[byte] is None:
            raise SimulationError(f"remove_child: {byte:#04x} absent in N256")
        self.children[byte] = None
        self._count -= 1

    def children_items(self) -> Iterator[Tuple[int, Child]]:
        for byte in range(256):
            child = self.children[byte]
            if child is not None:
                yield byte, child

    def child_nodes(self) -> List[Child]:
        return [child for child in self.children if child is not None]

    def grow(self) -> "InnerNode":
        raise SimulationError("N256 is the largest inner node")

    def shrink(self) -> "Node48":
        smaller = Node48()
        self._copy_header_to(smaller)
        for byte, child in self.children_items():
            smaller.add_child(byte, child)
        return smaller


GROWTH_ORDER = (Node4, Node16, Node48, Node256)
