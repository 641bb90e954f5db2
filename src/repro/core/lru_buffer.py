"""A capacity-bounded LRU on-chip buffer.

DCART manages every on-chip buffer except the Tree_buffer with LRU
(paper §III-E, citing [4]).  Entries are variable-sized (shortcut
entries, bucket records, queued operations); the buffer tracks byte
occupancy and evicts least-recently-used entries until a new one fits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.errors import ConfigError


class LruBuffer:
    """Byte-budgeted LRU map used for Scan/Bucket/Shortcut buffers."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ConfigError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[Hashable, int]" = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def lookup(self, key: Hashable) -> bool:
        """Probe for ``key``; refreshes recency on hit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: Hashable, size_bytes: int) -> int:
        """Insert (or refresh) an entry; returns the number of evictions."""
        if size_bytes <= 0:
            raise ConfigError(f"entry size must be positive: {size_bytes}")
        if size_bytes > self.capacity_bytes:
            raise ConfigError(
                f"entry of {size_bytes} B exceeds buffer capacity "
                f"{self.capacity_bytes} B"
            )
        evicted = 0
        if key in self._entries:
            self.used_bytes -= self._entries.pop(key)
        while self.used_bytes + size_bytes > self.capacity_bytes:
            _, old_size = self._entries.popitem(last=False)
            self.used_bytes -= old_size
            self.evictions += 1
            evicted += 1
        self._entries[key] = size_bytes
        self.used_bytes += size_bytes
        return evicted

    def remove(self, key: Hashable) -> bool:
        """Drop an entry if present (invalidation path)."""
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self.used_bytes -= size
        return True

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
