"""Engine interface and the result record every experiment consumes.

Design: *functional* execution is exact — every engine applies the
workload's operations to a real :class:`AdaptiveRadixTree` and collects a
:class:`TraversalRecord` per operation.  *Timing* is then a deterministic
function of those traces and the engine's platform cost model.  This
split keeps all engines bit-identical in what they do to the index (so
cross-engine counters like partial-key matches are comparable) while
letting each price the work the way its hardware would.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional

import numpy as np

from repro.art.stats import TraversalRecord
from repro.art.tree import AdaptiveRadixTree
from repro.errors import KeyNotFoundError, SimulationError
from repro.model.platform import Platform
from repro.workloads.ops import CHUNK_OPS, OpKind, Workload


@dataclass
class TimeBreakdown:
    """Where the simulated time went (paper Fig. 2a's categories)."""

    traverse_seconds: float = 0.0
    sync_seconds: float = 0.0
    other_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.traverse_seconds + self.sync_seconds + self.other_seconds

    def share(self, component: str) -> float:
        total = self.total_seconds
        if total == 0:
            return 0.0
        return getattr(self, f"{component}_seconds") / total


@dataclass
class RunResult:
    """Everything the paper's figures report about one engine run."""

    engine: str
    workload: str
    platform: str
    n_ops: int = 0
    elapsed_seconds: float = 0.0
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    # Traversal counters (Figs. 2b, 2c, 8)
    partial_key_matches: int = 0
    nodes_visited: int = 0
    distinct_nodes_visited: int = 0
    bytes_fetched: int = 0
    bytes_used: int = 0
    cache_hit_rate: float = 0.0
    # Concurrency counters (Figs. 2d, 7)
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    # Per-operation latencies in ns (Fig. 10)
    latencies_ns: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # Spatial-similarity data (Fig. 3 / Observation 2)
    node_access_counts: Counter = field(default_factory=Counter)
    energy_joules: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_mops(self) -> float:
        if self.elapsed_seconds == 0:
            return 0.0
        return self.n_ops / self.elapsed_seconds / 1e6

    @property
    def redundant_node_visits(self) -> int:
        """Visits to nodes that some earlier operation already visited."""
        return self.nodes_visited - self.distinct_nodes_visited

    @property
    def redundancy_ratio(self) -> float:
        """Fig. 2(b): share of traversed nodes that were redundant."""
        if self.nodes_visited == 0:
            return 0.0
        return self.redundant_node_visits / self.nodes_visited

    @property
    def cacheline_utilisation(self) -> float:
        """Fig. 2(c): useful share of the bytes pulled through lines."""
        if self.bytes_fetched == 0:
            return 0.0
        return self.bytes_used / self.bytes_fetched

    @property
    def sync_share(self) -> float:
        """Fig. 2(d): synchronisation share of execution time."""
        return self.breakdown.share("sync")

    def latency_percentile_us(self, percentile: float) -> float:
        if len(self.latencies_ns) == 0:
            return 0.0
        return float(np.percentile(self.latencies_ns, percentile)) / 1e3

    @property
    def p99_latency_us(self) -> float:
        return self.latency_percentile_us(99.0)

    def summary(self) -> str:
        return (
            f"{self.engine:>10s} on {self.workload:<6s}: "
            f"{self.elapsed_seconds * 1e3:9.3f} ms, "
            f"{self.throughput_mops:8.2f} Mops/s, "
            f"sync {100 * self.sync_share:5.1f} %, "
            f"{self.lock_contentions} contentions, "
            f"{self.partial_key_matches} matches, "
            f"{self.energy_joules:.4f} J"
        )


def apply_operation(
    tree: AdaptiveRadixTree,
    kind: OpKind,
    key: bytes,
    value: Optional[object] = None,
    scan_count: int = 0,
) -> TraversalRecord:
    """Execute one operation on the tree, returning its traversal trace.

    WRITE is upsert semantics (§ops module): an existing key gets a value
    update, a new key a structural insert.  Misses (read/delete of an
    absent key) are legal — the walk that discovered the absence is still
    traced and still costs time.
    """
    # Equivalent to `with record_traversal(tree, ...)` but without the
    # generator-based context manager: this runs once per simulated op,
    # and the enter/exit generator frames were measurable on profiles.
    record = TraversalRecord(op_kind=kind.value, key=key)
    previous = tree._recorder
    tree._recorder = record
    try:
        if kind is OpKind.READ:
            tree.get(key)
        elif kind is OpKind.WRITE:
            tree.upsert(key, value)
        elif kind is OpKind.DELETE:
            try:
                tree.delete(key)
            except KeyNotFoundError:
                record.outcome = "miss"
        elif kind is OpKind.SCAN:
            for count, _ in enumerate(tree.range_scan(key, b"\xff" * 16)):
                if count + 1 >= max(1, scan_count):
                    break
        else:  # pragma: no cover - OpKind is closed
            raise SimulationError(f"unhandled operation kind: {kind}")
    finally:
        tree._recorder = previous
    return record


class Engine(abc.ABC):
    """Base class: load phase + per-engine timed phase."""

    name: str = "engine"

    def __init__(self, platform: Platform):
        self.platform = platform
        #: Optional :class:`~repro.obs.Telemetry` a run reports into.
        #: ``None`` (the default) disables telemetry; attaching one never
        #: changes the :class:`RunResult` — it only fills the registry.
        self.telemetry = None

    def build_tree(self, workload: Workload) -> AdaptiveRadixTree:
        """Bulk-load the workload's key set (untimed, as in the paper)."""
        tree = AdaptiveRadixTree()
        for position, key in enumerate(workload.loaded_keys):
            tree.insert(key, position)
        return tree

    @abc.abstractmethod
    def run(
        self,
        workload: Workload,
        tree: Optional[AdaptiveRadixTree] = None,
        records: Optional[List[TraversalRecord]] = None,
    ) -> RunResult:
        """Execute the workload's operation stream and price it.

        Operation-centric engines (the CPU baselines, CuART) execute the
        stream identically, so a caller may pass ``records`` collected
        once (see :func:`repro.harness.runner.run_matrix`) and each
        engine prices the same traces with its own cost model.  Engines
        whose *functional* execution differs (DCART, DCART-C take
        shortcut paths that touch different nodes) ignore ``records``.
        """

    def _new_result(self, workload: Workload) -> RunResult:
        return RunResult(
            engine=self.name,
            workload=workload.name,
            platform=self.platform.name,
            n_ops=workload.n_ops,
        )

    @staticmethod
    def collect_records(
        tree: AdaptiveRadixTree, workload: Workload
    ) -> List[TraversalRecord]:
        """Apply every operation, returning the per-op traces in order."""
        stream = workload.operations
        records: List[TraversalRecord] = []
        for ids in stream.batches(CHUNK_OPS):
            records.extend(map(apply_operation, repeat(tree), *stream.gather(ids)))
        return records
