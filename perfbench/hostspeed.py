"""A fixed reference task that gauges how fast the host runs right now.

On a shared host the same code runs up to 1.5 times slower for minutes
at a time, when other tenants load the physical cores and caches.  CPU
time does not leave that out: the process runs, only more slowly.  The
runner therefore times this task, which never changes, next to every
measured phase and scales the phase's time by ``REFERENCE_S / probe``.
A slow period lengthens both, so the scaled time stays put, while a
change to the simulator moves the phase alone.

The task mixes the work the simulator does: building and walking a
byte-indexed tree of small Python objects, and a NumPy sort.  It uses no
code of the simulator, so no change to the simulator can move it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

#: CPU seconds :func:`probe` takes on the reference host, a 2-vCPU Linux
#: VM in one of its fast periods.  Scaled times read as seconds on it.
REFERENCE_S = 0.15

_N_KEYS = 60_000
_N_SORT = 400_000


class _Node:
    __slots__ = ("children", "hits")

    def __init__(self) -> None:
        self.children: dict = {}
        self.hits = 0


def probe() -> float:
    """CPU seconds one run of the reference task takes now."""
    was_enabled = gc.isenabled()
    # The collector's passes would scale with the simulator's live heap.
    gc.disable()
    try:
        start = time.process_time()
        rng = random.Random(1)
        keys = [rng.getrandbits(32) for _ in range(_N_KEYS)]
        root = _Node()
        for key in keys:
            node = root
            for shift in (24, 16, 8):
                byte = (key >> shift) & 0xFF
                child = node.children.get(byte)
                if child is None:
                    child = node.children[byte] = _Node()
                node = child
            node.hits += 1
        for key in keys:
            node = root
            for shift in (24, 16, 8):
                node = node.children[(key >> shift) & 0xFF]
            node.hits -= 1
        values = np.random.default_rng(1).integers(0, 1 << 40, _N_SORT)
        np.argsort(values, kind="stable")
        elapsed = time.process_time() - start
        del root, keys, values
    finally:
        if was_enabled:
            gc.enable()
    return elapsed
