"""Deterministic wave model of concurrent operation interleaving.

The real systems in the paper keep a large number of operations in flight
at once (96 CPU hardware threads with deep software queues; thousands of
GPU threads).  We model that with *waves*: a window of ``window`` ops is
considered concurrently outstanding; the next window starts when the
current one drains.  Within a window:

* operations touching *different* nodes run in parallel, limited by the
  ``n_workers`` execution resources;
* operations touching the *same* node, at least one of them a write,
  form a :class:`ConflictGroup` and serialise behind its lock/CAS —
  each queued member is one contention and pays a queueing delay.

A window's duration is the maximum of (a) the compute-parallel time of
all its operations over ``n_workers`` and (b) its slowest conflict
group's serialised time — so a hot node stalls the window even when 95
other workers are idle, which is exactly the pathology of Fig. 2(d)/(e).

The model is O(n) in the number of operations and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError


@dataclass
class ConflictGroup:
    """Concurrent operations on one node within one window."""

    node_id: int
    op_indices: List[int]
    writers: int

    @property
    def size(self) -> int:
        return len(self.op_indices)

    @property
    def is_conflicted(self) -> bool:
        return self.size > 1 and self.writers > 0

    @property
    def contentions(self) -> int:
        """Queued acquisitions: everyone behind the first holder."""
        return self.size - 1 if self.is_conflicted else 0


@dataclass
class WaveReport:
    """Aggregate outcome of simulating one operation stream."""

    n_ops: int = 0
    n_windows: int = 0
    contentions: int = 0
    conflicted_ops: int = 0
    conflicted_readers: int = 0  # readers caught in a writer's group
    parallel_seconds: float = 0.0       # compute-limited component
    serialization_seconds: float = 0.0  # extra time lost to conflicts
    window_seconds: List[float] = field(default_factory=list)
    latencies_ns: List[float] = field(default_factory=list)  # per op, in order

    @property
    def total_seconds(self) -> float:
        return self.parallel_seconds + self.serialization_seconds


class WaveSimulator:
    """Runs the wave model over per-operation (node, is_write, cost) data."""

    def __init__(
        self,
        n_workers: int,
        window: int,
        contention_penalty_ns: float,
        spin_wait: bool = False,
    ):
        if n_workers <= 0:
            raise ConfigError(f"n_workers must be positive: {n_workers}")
        if window <= 0:
            raise ConfigError(f"window must be positive: {window}")
        if contention_penalty_ns < 0:
            raise ConfigError(
                f"contention penalty must be >= 0: {contention_penalty_ns}"
            )
        self.n_workers = n_workers
        self.window = window
        self.contention_penalty_ns = contention_penalty_ns
        #: With ``spin_wait`` every queued waiter *burns its thread* for
        #: the whole time it waits (lock convoys / CAS retry loops), so a
        #: conflict group of size k wastes O(k^2) thread-time — the
        #: collapse the paper's Fig. 2(d)/(e) measures.  Without it, only
        #: the critical path of the slowest group extends the window.
        self.spin_wait = spin_wait

    def run(
        self,
        targets: Sequence[int],
        is_write: Sequence[bool],
        cost_ns: Sequence[float],
        hold_ns: Sequence[float] = None,
        collect_latencies: bool = False,
    ) -> WaveReport:
        """Simulate a stream.

        ``targets[i]`` is the node operation *i* operates on (lock
        granularity) and ``cost_ns[i]`` its lock-free service time.
        ``hold_ns[i]`` is the part of the service spent *inside* the
        critical section (the node modification itself) — only that part
        serialises among conflicting operations.  When omitted, the whole
        service is treated as held (the most pessimistic reading).

        With ``collect_latencies`` the report carries a per-operation
        latency: the op's own service plus the queueing delay it suffered
        behind earlier members of its conflict group.
        """
        n = len(targets)
        if not (len(is_write) == len(cost_ns) == n):
            raise ConfigError("targets/is_write/cost_ns must have equal length")
        if hold_ns is None:
            hold_ns = cost_ns
        elif len(hold_ns) != n:
            raise ConfigError("hold_ns must match targets in length")
        report = WaveReport(n_ops=n)
        latencies = [0.0] * n if collect_latencies else None

        for start in range(0, n, self.window):
            end = min(start + self.window, n)
            report.n_windows += 1

            groups: Dict[int, Tuple[List[int], int]] = {}
            window_cost = 0.0
            for i in range(start, end):
                window_cost += cost_ns[i]
                indices, writers = groups.setdefault(targets[i], ([], 0))
                indices.append(i)
                if is_write[i]:
                    groups[targets[i]] = (indices, writers + 1)

            parallel_ns = window_cost / self.n_workers
            slowest_group_ns = 0.0
            spin_ns = 0.0
            for node_id, (indices, writers) in groups.items():
                group = ConflictGroup(node_id, indices, writers)
                if group.is_conflicted:
                    report.contentions += group.contentions
                    report.conflicted_ops += group.size
                    report.conflicted_readers += group.size - group.writers
                    serial = (
                        sum(hold_ns[i] for i in indices)
                        + group.contentions * self.contention_penalty_ns
                    )
                    slowest_group_ns = max(slowest_group_ns, serial)
                    queued = 0.0
                    for i in indices:
                        if latencies is not None:
                            latencies[i] = cost_ns[i] + queued
                        spin_ns += queued
                        queued += hold_ns[i] + self.contention_penalty_ns
                elif latencies is not None:
                    for i in indices:
                        latencies[i] = cost_ns[i]

            if self.spin_wait:
                # Waiters occupy their workers while queued; the wasted
                # thread-time competes with useful work for the cores.
                window_ns = max(
                    parallel_ns + spin_ns / self.n_workers, slowest_group_ns
                )
            else:
                window_ns = max(parallel_ns, slowest_group_ns)
            report.parallel_seconds += parallel_ns * 1e-9
            report.serialization_seconds += max(0.0, window_ns - parallel_ns) * 1e-9
            report.window_seconds.append(window_ns * 1e-9)

        if latencies is not None:
            report.latencies_ns = latencies
        return report
