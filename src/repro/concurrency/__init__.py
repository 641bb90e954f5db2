"""Concurrency-control simulation (paper §II-B, Challenge 2).

Real ART deployments serialise conflicting writers with node-level locks
(the ROWEX protocol of Leis et al. [9]) or CAS loops (Heart, SMART).  A
reproduction cannot measure *real* contention — pthread interleavings are
nondeterministic and Python's GIL would falsify everything — so this
subpackage simulates it with :mod:`waves`, a deterministic interleaving
model: a window of operations is outstanding at once; operations in the
same window that touch the same node, at least one writing, conflict and
serialise.  The lock and CAS prices themselves are
:mod:`repro.model.costs` constants.
"""

from repro.concurrency.waves import ConflictGroup, WaveReport, WaveSimulator

__all__ = [
    "ConflictGroup",
    "WaveReport",
    "WaveSimulator",
]
