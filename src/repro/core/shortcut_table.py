"""The Shortcut_Table and its on-chip buffer (paper §III-C).

A *shortcut* is a cached partial-key-matching result:
``<Key_ID, Address_Target_Node, Address_Parent_Node>``.  The full table
is a hash map in off-chip memory; a 128 KB on-chip Shortcut_buffer keeps
the recently used entries so that the SOU's ``Index_Shortcut`` stage
usually resolves in BRAM.

Staleness: tree mutations (splits, grows, merges) free nodes, so a
shortcut can point at a dead address.  The accelerator validates every
hit against the live tree (the fetched "node" must still be the leaf for
the shortcut's key) and repairs the entry after re-traversal — the same
detect-and-regenerate behaviour §III-C describes for node-type changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import SHORTCUT_ENTRY_BYTES
from repro.core.lru_buffer import LruBuffer


@dataclass(slots=True)
class ShortcutEntry:
    """One Shortcut_Table row."""

    key: bytes
    target_address: int
    parent_address: Optional[int]
    #: Set by the fault injector: the addresses were tampered with, so a
    #: hit will fail validation and trigger the SOU's retry-then-repair
    #: path (see :mod:`repro.faults.injector`).
    corrupted: bool = False


class ShortcutTable:
    """Off-chip hash table + on-chip LRU buffer of shortcut entries."""

    def __init__(self, buffer_bytes: int):
        self._entries: Dict[bytes, ShortcutEntry] = {}
        self.buffer = LruBuffer(buffer_bytes)
        self.generated = 0
        self.updated = 0
        self.stale_hits = 0
        self.corrupted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entry_keys(self):
        """Live entry keys (the fault injector samples its victims here)."""
        return self._entries.keys()

    def corrupt(self, key: bytes) -> bool:
        """Tamper with an entry so its addresses dangle (fault injection).

        The corrupted addresses are a deterministic function of the
        originals (bit-flipped into the negative range, which the bump
        allocator never issues), so the same schedule always produces
        the same broken table.
        """
        entry = self._entries.get(key)
        if entry is None:
            return False
        entry.target_address = -entry.target_address - 1
        if entry.parent_address is not None:
            entry.parent_address = -entry.parent_address - 1
        entry.corrupted = True
        self.corrupted += 1
        return True

    def lookup(self, key: bytes) -> tuple:
        """Probe for ``key``.

        Returns ``(entry_or_None, on_chip)`` where ``on_chip`` says the
        probe was satisfied by the Shortcut_buffer (2-cycle path) rather
        than the off-chip table (HBM-latency path).
        """
        on_chip = self.buffer.lookup(key)
        entry = self._entries.get(key)
        if entry is not None and not on_chip:
            # Off-chip hit pulls the entry on chip for reuse.
            self.buffer.insert(key, SHORTCUT_ENTRY_BYTES)
        return entry, on_chip

    def generate(
        self, key: bytes, target_address: int, parent_address: Optional[int]
    ) -> ShortcutEntry:
        """``Generate_Shortcut`` stage: create or refresh an entry."""
        existing = self._entries.get(key)
        entry = ShortcutEntry(key, target_address, parent_address)
        self._entries[key] = entry
        if existing is None:
            self.generated += 1
        else:
            self.updated += 1
        self.buffer.insert(key, SHORTCUT_ENTRY_BYTES)
        return entry

    def note_stale(self, key: bytes) -> None:
        """Record a hit that failed validation (dangling address)."""
        self.stale_hits += 1
        self._entries.pop(key, None)
        self.buffer.remove(key)

    def drop(self, key: bytes) -> None:
        """Remove a shortcut (e.g. its key was deleted)."""
        self._entries.pop(key, None)
        self.buffer.remove(key)

    def report_metrics(self, registry) -> None:
        """Write the table's run totals into a MetricsRegistry."""
        registry.counter("shortcut_table.generated", self.generated)
        registry.counter("shortcut_table.updated", self.updated)
        registry.counter("shortcut_table.stale_hits", self.stale_hits)
        registry.counter("shortcut_table.corrupted", self.corrupted)
        registry.gauge("shortcut_table.entries", len(self._entries))
        registry.counter("shortcut_table.buffer_hits", self.buffer.hits)
        registry.counter("shortcut_table.buffer_misses", self.buffer.misses)
        registry.counter("shortcut_table.buffer_evictions", self.buffer.evictions)
        registry.gauge("shortcut_table.buffer_hit_rate", self.buffer.hit_rate)
