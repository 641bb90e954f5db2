"""Reference Tree_buffer: the lazy min-heap the value-aware buffer replaced.

Every touch pushes a fresh ``(norm, seq, address)`` entry and superseded
entries are skipped when an eviction pops them, so the heap grows with
the number of touches.  That makes it a poor simulator component but a
plain oracle: the victim is the heap's minimum, lowest normalised value
first and least recent (lowest ``seq``) among equals.  The tests replay
the same scripts through it and through
:class:`~repro.core.tree_buffer.ValueAwareTreeBuffer` and require the same
result from every call.
"""

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.errors import ConfigError

#: Same threshold as the buffer under test.
_MIN_MULT = 1e-150


class LazyHeapTreeBuffer:
    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        # addr -> (normalised value, seq, size); effective value = norm * _mult.
        self._resident: Dict[int, Tuple[float, int, int]] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        self._mult = 1.0
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected_inserts = 0

    def fetch(self, address: int, size_bytes: int, value: float) -> bool:
        resident = self._resident
        heap = self._heap
        norm = value / self._mult
        entry = resident.get(address)
        if entry is not None:
            self.hits += 1
            self._seq += 1
            resident[address] = (norm, self._seq, entry[2])
            heappush(heap, (norm, self._seq, address))
            return True
        self.misses += 1
        if size_bytes <= 0:
            raise ConfigError(f"node size must be positive: {size_bytes}")
        if size_bytes > self.capacity_bytes:
            raise ConfigError(f"node of {size_bytes} B exceeds Tree_buffer capacity")
        while self.used_bytes + size_bytes > self.capacity_bytes:
            victim_addr = None
            while heap:
                victim = heappop(heap)
                current = resident.get(victim[2])
                if current is not None and current[:2] == victim[:2]:
                    victim_addr = victim[2]
                    break
            if victim_addr is None:
                break
            if victim[0] > norm:
                heappush(heap, victim)
                self.rejected_inserts += 1
                return False
            self.used_bytes -= resident.pop(victim_addr)[2]
            self.evictions += 1
        self.used_bytes += size_bytes
        self._seq += 1
        resident[address] = (norm, self._seq, size_bytes)
        heappush(heap, (norm, self._seq, address))
        return False

    def invalidate(self, address: int) -> bool:
        entry = self._resident.pop(address, None)
        if entry is None:
            return False
        self.used_bytes -= entry[2]
        return True

    def resident_addresses(self) -> List[int]:
        return list(self._resident)

    def decay(self, factor: float = 0.5) -> None:
        if not 0 < factor <= 1:
            raise ConfigError(f"decay factor must be in (0, 1]: {factor}")
        if factor == 1.0:
            return
        self._mult *= factor
        if self._mult < _MIN_MULT:
            self._renormalise()

    def _renormalise(self) -> None:
        mult = self._mult
        self._heap = []
        for address, (norm, seq, size) in self._resident.items():
            folded = norm * mult
            self._resident[address] = (folded, seq, size)
            heappush(self._heap, (folded, seq, address))
        self._mult = 1.0
