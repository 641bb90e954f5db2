"""Synthetic memory layout for tree nodes.

The cache and buffer simulators (``repro.memsim``, ``repro.core``) need
node *addresses*: the motivation study measures cacheline utilisation and
the accelerator's Tree_buffer caches nodes by address, exactly as the HBM-
resident tree in the paper is addressed.  CPython objects have no stable
useful addresses, so each tree owns a :class:`NodeAllocator` — a bump
allocator that hands out 16-byte-aligned addresses in a flat synthetic
address space, in allocation order (which is also how a slab/arena
allocator would lay an ART out in practice).

Freed ranges are tracked only as a byte total; the simulators never reuse
addresses, so a stale shortcut can be *detected* (its address no longer
maps to a live node) rather than silently aliased.
"""

from __future__ import annotations

ALIGNMENT = 16


class NodeAllocator:
    """Bump allocator over a synthetic flat address space."""

    def __init__(self, base_address: int = 0x1000_0000):
        self._next = base_address
        self.base_address = base_address
        self.live_bytes = 0
        self.freed_bytes = 0
        self.allocations = 0

    def allocate(self, size_bytes: int) -> int:
        """Reserve ``size_bytes`` and return the (aligned) start address."""
        if size_bytes <= 0:
            raise ValueError(f"allocation size must be positive: {size_bytes}")
        address = self._next
        padded = -(-size_bytes // ALIGNMENT) * ALIGNMENT
        self._next += padded
        self.live_bytes += size_bytes
        self.allocations += 1
        return address

    def free(self, size_bytes: int) -> None:
        """Record that a node of ``size_bytes`` was released."""
        self.live_bytes -= size_bytes
        self.freed_bytes += size_bytes

    @property
    def high_water_mark(self) -> int:
        """Total address-space bytes consumed so far."""
        return self._next - self.base_address
