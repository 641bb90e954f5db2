"""The value-aware Tree_buffer (paper §III-E).

DCART caches ART nodes on chip in a 4 MB Tree_buffer.  Plain LRU would
let the irregular traversal evict *high-value* nodes (the frequently
traversed ones of Observation 2), so DCART replaces by **value**: the
value of a node approximates how many pending operations will touch it —
"the number of the operations in the corresponding bucket", known right
after combining.  On a full buffer, a node is admitted only if its value
exceeds the current minimum, evicting that minimum — so the hot subtree
is pinned for the whole batch and cache thrashing on high-value nodes is
impossible by construction.

Implementation: residents live in *groups*, one per distinct normalised
value (see below), each an ``OrderedDict`` of ``address -> touch stamp``
in recency order, least recent first.  A min-heap holds the group values,
each pushed once, when its group is created; a value whose group has
since emptied is skipped when an eviction reaches it.  The victim is the
first node of the lowest group: lowest value, then least recent.  A hit
at an unchanged value moves the node to the end of its group, a hit at
a new value to the end of that value's group, so the state grows with
the resident nodes and their distinct values, never with the number of
touches.

Decay is *lazy*: ageing every resident value each batch would re-sort
every node, so the buffer instead keeps one cumulative decay multiplier
and stores every value *normalised* by the multiplier in force when it
was written.  Effective value = stored / multiplier at write time x
multiplier now; ordering among normalised values is invariant under
decay (all effective values scale together), so ``decay()`` is O(1) and
eviction order is exactly what an eager rescale would give.  With the
default factor 0.5 every scaling step is a power of two, hence exact in
binary floating point.  Before the multiplier underflows it is folded
into the group values; two values that fold to the same float (deep
underflow, some 1,500 half-life decays after their last touch) merge
into one group in the order of their nodes' touch stamps.

With every fetch at one value there is one group, the admission check
never rejects and decay cannot reorder anything, so the buffer is exact
LRU: the ``value_aware_tree_buffer=False`` ablation runs it that way.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

#: Renormalisation threshold: when the cumulative decay multiplier
#: drops below this, it is folded into the stored values (exactly, for
#: power-of-two factors) so it can never underflow to zero.
_MIN_MULT = 1e-150


class ValueAwareTreeBuffer:
    """Byte-budgeted node cache with value-based replacement.

    Eviction order is (value, recency): the victim is the least recently
    used node among those with the lowest value.  The paper specifies
    the value rule ("evict the node with the lowest value"); the LRU
    tie-break is our refinement for the common case where many nodes of
    one bucket share the same value estimate.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        #: address -> normalised value; effective value = norm * _mult.
        self._norm: Dict[int, float] = {}
        #: normalised value -> {address: stamp of its last touch}, least
        #: recent first.  Within a group the order alone decides; the
        #: stamps order two groups that renormalisation merges.
        self._groups: Dict[float, OrderedDict[int, int]] = {}
        #: Min-heap of group values; may still hold values of emptied groups.
        self._values: List[float] = []
        #: address -> node size in bytes.
        self._size: Dict[int, int] = {}
        self._tick = count().__next__
        #: Cumulative decay multiplier (product of all decay factors).
        self._mult = 1.0
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected_inserts = 0

    def fetch(self, address: int, size_bytes: int, value: float) -> bool:
        """Fetch one node at ``value``; True on a buffer hit.

        A hit refreshes the node's recency and value.  A miss admits the
        node: free space admits unconditionally; a full buffer evicts
        lowest-value (then least-recent) residents until it fits, unless
        the lowest resident value exceeds the newcomer's (§III-E's
        Value_x > Value_low rule, with >= so same-value nodes rotate
        instead of freezing the buffer).  The SOU inlines the hit branch
        and calls this only on a miss.
        """
        norm = value / self._mult
        current = self._norm.get(address)
        if current is not None:
            self.hits += 1
            if current == norm:
                group = self._groups[norm]
                group.move_to_end(address)
                group[address] = self._tick()
            else:
                self._regroup(address, current, norm)
            return True
        self.misses += 1
        if size_bytes <= 0:
            raise ConfigError(f"node size must be positive: {size_bytes}")
        if size_bytes > self.capacity_bytes:
            raise ConfigError(
                f"node of {size_bytes} B exceeds Tree_buffer capacity"
            )
        groups = self._groups
        values = self._values
        while self.used_bytes + size_bytes > self.capacity_bytes:
            lowest = values[0]
            group = groups.get(lowest)
            if group is None:
                heappop(values)  # its group emptied after the push
                continue
            if lowest > norm:
                # The newcomer is strictly colder than everything
                # resident (Value_x < Value_low): do not thrash.
                self.rejected_inserts += 1
                return False
            victim = group.popitem(last=False)[0]
            if not group:
                del groups[lowest]
                heappop(values)
            del self._norm[victim]
            self.used_bytes -= self._size.pop(victim)
            self.evictions += 1
        self.used_bytes += size_bytes
        self._size[address] = size_bytes
        self._norm[address] = norm
        group = groups.get(norm)
        if group is None:
            group = self._new_group(norm)
        group[address] = self._tick()
        return False

    def _regroup(self, address: int, old: float, new: float) -> None:
        """Move a resident node from value ``old`` to the end of ``new``."""
        groups = self._groups
        group = groups[old]
        del group[address]
        if not group:
            del groups[old]
        self._norm[address] = new
        group = groups.get(new)
        if group is None:
            group = self._new_group(new)
        group[address] = self._tick()

    def _new_group(self, norm: float) -> OrderedDict[int, int]:
        """An empty group for ``norm``, its value on the heap."""
        groups = self._groups
        group = groups[norm] = OrderedDict()
        if len(self._values) > 2 * len(groups):
            # Mostly values of emptied groups: keep the live ones.
            self._values = sorted(groups)
        else:
            heappush(self._values, norm)
        return group

    def invalidate(self, address: int) -> bool:
        """Drop a node (it was freed by a split/merge/grow)."""
        norm = self._norm.pop(address, None)
        if norm is None:
            return False
        group = self._groups[norm]
        del group[address]
        if not group:
            del self._groups[norm]
        self.used_bytes -= self._size.pop(address)
        return True

    def resident_addresses(self) -> List[int]:
        """Addresses currently cached (fault-injection storm targets)."""
        return list(self._norm)

    def decay(self, factor: float = 0.5) -> None:
        """Age every resident value (called once per batch).

        Bucket op counts are per-batch estimates; without aging, a node
        admitted during one hot batch would out-rank every later batch's
        nodes forever.  Exponential decay keeps persistent hot nodes
        resident (their values are refreshed by each batch's hits) while
        letting one-batch wonders drain out - the hardware analogue is a
        periodic right-shift of the value registers.
        """
        if not 0 < factor <= 1:
            raise ConfigError(f"decay factor must be in (0, 1]: {factor}")
        if factor == 1.0:
            return
        # Lazy: scale the shared multiplier instead of every entry.
        # Normalised values (and hence eviction order) are untouched.
        self._mult *= factor
        if self._mult < _MIN_MULT:
            self._renormalise()

    def _renormalise(self) -> None:
        """Fold the multiplier into the group values before it underflows.

        Every value scales by the same constant, so relative order — and
        with it eviction order — is preserved, except where distinct
        values fold to one float; their groups merge by touch stamp,
        least recent first.  Runs once per ~500 half-life decays.
        """
        mult = self._mult
        folded: Dict[float, List[OrderedDict[int, int]]] = {}
        for norm, group in self._groups.items():
            folded.setdefault(norm * mult, []).append(group)
        self._groups.clear()
        for value, parts in folded.items():
            if len(parts) == 1:
                group = parts[0]
            else:
                group = OrderedDict(
                    sorted(
                        (entry for part in parts for entry in part.items()),
                        key=itemgetter(1),
                    )
                )
            self._groups[value] = group
            for address in group:
                self._norm[address] = value
        self._values = sorted(self._groups)
        self._mult = 1.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def report_metrics(self, registry: MetricsRegistry) -> None:
        """Write the buffer's run totals into a MetricsRegistry."""
        registry.counter("tree_buffer.hits", self.hits)
        registry.counter("tree_buffer.misses", self.misses)
        registry.counter("tree_buffer.evictions", self.evictions)
        registry.counter("tree_buffer.rejected_inserts", self.rejected_inserts)
        registry.gauge("tree_buffer.resident_nodes", len(self._norm))
        registry.gauge("tree_buffer.used_bytes", self.used_bytes)
        registry.gauge("tree_buffer.capacity_bytes", self.capacity_bytes)
        registry.gauge("tree_buffer.hit_rate", self.hit_rate)
