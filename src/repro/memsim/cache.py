"""Set-associative cache simulator with true-LRU replacement.

The CPU-baseline engines run every node access through a model of the
shared last-level cache, and CuART through the A100's L2, to split node
fetches into hits and memory misses: the irregular ART walk is what
produces the poor locality of Fig. 2.  Lines are
:data:`~repro.art.stats.CACHE_LINE_BYTES` wide.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.art.stats import CACHE_LINE_BYTES
from repro.errors import ConfigError


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class _LruSet:
    """One set with true-LRU replacement."""

    __slots__ = ("ways", "entries")

    def __init__(self, ways: int):
        self.ways = ways
        self.entries: "OrderedDict[int, None]" = OrderedDict()

    def access(self, tag: int) -> tuple:
        if tag in self.entries:
            self.entries.move_to_end(tag)
            return True, None
        evicted = None
        if len(self.entries) >= self.ways:
            evicted, _ = self.entries.popitem(last=False)
        self.entries[tag] = None
        return False, evicted


class SetAssociativeCache:
    """A single-level, line-granular cache model.

    ``access(address, size)`` touches every line the access spans and
    returns ``(hits, misses)`` for it.  Only recency state is modelled —
    no data, no coherence — which is all the timing models consume.
    """

    def __init__(self, capacity_bytes: int, ways: int = 16):
        if capacity_bytes <= 0:
            raise ConfigError(f"capacity must be positive: {capacity_bytes}")
        if capacity_bytes % (ways * CACHE_LINE_BYTES):
            raise ConfigError(
                f"capacity {capacity_bytes} not divisible by ways*line "
                f"({ways}*{CACHE_LINE_BYTES})"
            )

        self.capacity_bytes = capacity_bytes
        self.ways = ways
        self.n_sets = capacity_bytes // (ways * CACHE_LINE_BYTES)
        self._sets = [_LruSet(ways) for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access(self, address: int, size_bytes: int = 1) -> tuple:
        """Touch all lines of ``[address, address+size)``; return (hits, misses)."""
        if size_bytes <= 0:
            raise ConfigError(f"access size must be positive: {size_bytes}")
        first = address // CACHE_LINE_BYTES
        last = (address + size_bytes - 1) // CACHE_LINE_BYTES
        n_sets = self.n_sets
        sets = self._sets
        stats = self.stats
        if first == last:
            # Fast path: node fetches overwhelmingly span a single line.
            hit, evicted = sets[first % n_sets].access(first // n_sets)
            if hit:
                stats.hits += 1
                return 1, 0
            stats.misses += 1
            if evicted is not None:
                stats.evictions += 1
            return 0, 1
        hits = misses = 0
        for line in range(first, last + 1):
            hit, evicted = sets[line % n_sets].access(line // n_sets)
            if hit:
                hits += 1
            else:
                misses += 1
                if evicted is not None:
                    self.stats.evictions += 1
        self.stats.hits += hits
        self.stats.misses += misses
        return hits, misses

    def report_metrics(self, registry, prefix: str = "cache") -> None:
        """Write the cache's run totals into a MetricsRegistry.

        ``prefix`` namespaces the counters (the CPU engines report their
        modelled LLC as ``llc.*``).
        """
        registry.counter(f"{prefix}.hits", self.stats.hits)
        registry.counter(f"{prefix}.misses", self.stats.misses)
        registry.counter(f"{prefix}.evictions", self.stats.evictions)
        registry.gauge(f"{prefix}.hit_rate", self.stats.hit_rate)
        registry.gauge(f"{prefix}.capacity_bytes", self.capacity_bytes)

    def contains(self, address: int) -> bool:
        """Check residency of the line holding ``address`` without touching it."""
        line = address // CACHE_LINE_BYTES
        return line // self.n_sets in self._sets[line % self.n_sets].entries
