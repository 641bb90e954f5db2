"""Memory-system simulation (paper §II-B, Challenge 1).

The motivation study quantifies how badly operation-centric ART traversal
treats a general-purpose memory hierarchy: tiny fields (1-byte partial
keys, 8-byte pointers) are pulled through 64-byte cache lines (~20 %
utilisation, Fig. 2c) and the irregular walk thrashes the cache.  This
subpackage provides:

* :mod:`cache` — the set-associative LRU cache the CPU and GPU engines
  price node fetches through (the shared LLC, the A100's L2);
* :mod:`tracer` — reuse distances, which price one trace at every LRU
  capacity at once (miss-ratio curves for capacity planning).

Memory latency and bandwidth are :mod:`repro.model.costs` constants.
"""

from repro.memsim.cache import CacheStats, SetAssociativeCache
from repro.memsim.tracer import ReuseDistanceTracer

__all__ = [
    "CacheStats",
    "ReuseDistanceTracer",
    "SetAssociativeCache",
]
