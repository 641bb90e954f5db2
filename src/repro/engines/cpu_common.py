"""Shared machinery for the operation-centric CPU baselines.

ART [9], Heart [17], and SMART [11] differ in synchronisation scheme and
in how much traversal they can skip, but share the execution shape: every
operation individually walks the tree on one of 96 threads, through the
shared last-level cache, and synchronises on the node it modifies.  This
module prices that shape:

1. each traversal trace is replayed through an LLC model to split node
   fetches into cache hits and DRAM misses;
2. engine hooks may *skip* leading path levels (SMART's path reservation
   cache) and choose the synchronisation cost (ROWEX lock vs. CAS);
3. the wave model (:mod:`repro.concurrency.waves`) converts per-op costs
   and conflict targets into serialisation time and contention counts;
4. elapsed time is ``max(compute-parallel, DRAM-bandwidth) +
   serialisation`` — the same "whichever resource saturates first" bound
   the paper's Challenge 1/2 analysis describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.art.stats import TraversalRecord, CACHE_LINE_BYTES
from repro.art.tree import AdaptiveRadixTree
from repro.concurrency.waves import WaveSimulator
from repro.engines.base import Engine, RunResult, TimeBreakdown
from repro.memsim.cache import SetAssociativeCache
from repro.model.costs import CAS_L1_NS, CAS_RAM_NS, CpuCosts, DEFAULT_CPU_COSTS
from repro.model.platform import CPU_PLATFORM, Platform
from repro.workloads.ops import Workload


@dataclass(slots=True)
class PricedRun:
    """All operations after cost assignment, as parallel arrays.

    Column-wise storage (one list per field) instead of one object per
    op: the pricing loop runs once per simulated operation, and the
    wave simulator wants the columns anyway.
    """

    targets: List[int]        # conflict-group node (what a lock protects)
    is_write: List[bool]
    service_ns: List[float]   # total lock-free service time
    hold_ns: List[float]      # critical-section part of the service
    traverse_ns: List[float]
    sync_ns: List[float]
    other_ns: List[float]


class CpuOperationCentricEngine(Engine):
    """Base for the three CPU baselines; subclasses set the knobs."""

    #: "lock" (ROWEX write locks) or "cas" (atomic compare-and-swap).
    sync_scheme = "lock"
    #: Number of leading path levels servable from a path cache (0 = none).
    path_cache_levels = 0
    #: Entries in the path cache (per engine instance).
    path_cache_entries = 4096
    #: Bytes of the key used as the path-cache tag.
    path_cache_tag_bytes = 2
    #: Per-waiter queueing penalty (ns).  Lock convoys (ROWEX) cost far
    #: more per waiter than optimistic CAS retry loops, which is the
    #: main reason ART trails Heart/SMART in the paper's Figs. 2 and 9.
    contention_penalty_ns: Optional[float] = None  # None = the CpuCosts default
    #: Optimistic readers (OLC) re-traverse on conflict instead of
    #: waiting; when set, every conflicted reader re-pays the average
    #: traversal once.
    reader_restart = False

    def __init__(
        self,
        platform: Platform = CPU_PLATFORM,
        costs: CpuCosts = DEFAULT_CPU_COSTS,
    ):
        super().__init__(platform)
        if self.contention_penalty_ns is not None:
            costs = replace(costs, contention_penalty_ns=self.contention_penalty_ns)
        self.costs = costs

    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        tree: Optional[AdaptiveRadixTree] = None,
        records: Optional[List[TraversalRecord]] = None,
    ) -> RunResult:
        if records is None:
            if tree is None:
                tree = self.build_tree(workload)
            records = self.collect_records(tree, workload)
        result = self._new_result(workload)

        llc = SetAssociativeCache(self.costs.llc_bytes, ways=16)
        path_cache: dict = {}

        # This loop prices every node touch of every operation — the
        # single hottest stretch of the CPU-baseline engines — so cost
        # constants and bound methods are hoisted, per-visit counters
        # are batched into lists, and the NodeTouch fetch-span
        # properties are inlined (same span = min(size, header+slot)).
        costs = self.costs
        dram_ns = costs.node_fetch_dram_ns
        cached_ns = costs.node_fetch_cached_ns
        key_match_ns = costs.key_match_ns
        leaf_op_ns = costs.leaf_op_ns
        structure_op_ns = costs.structure_op_ns
        lock_ns = costs.lock_uncontended_ns
        sync_is_lock = self.sync_scheme == "lock"
        use_path_cache = self.path_cache_levels > 0
        llc_access = llc.access
        llc_contains = llc.contains

        priced = PricedRun([], [], [], [], [], [], [])
        targets = priced.targets
        write_flags = priced.is_write
        service_list = priced.service_ns
        hold_list = priced.hold_ns
        traverse_list = priced.traverse_ns
        sync_list = priced.sync_ns
        other_list = priced.other_ns

        effective_matches = 0
        nodes_visited = 0
        visited_ids: List[int] = []
        bytes_fetched = bytes_used = 0
        dram_lines = 0
        acquisitions = 0
        n_priced = 0

        for record in records:
            effective = record.touches
            if use_path_cache:
                skipped = self._path_cache_skip(path_cache, record)
                if skipped:
                    effective = effective[skipped:]

            traverse_ns = 0.0
            inner_effective = 0
            for touch in effective:
                size = touch.size_bytes
                used = touch.used_bytes
                span = size if size < 16 + used else 16 + used
                hits, misses = llc_access(touch.address, span)
                dram_lines += misses
                if misses:
                    traverse_ns += dram_ns
                else:
                    traverse_ns += cached_ns
                if touch.kind != "Leaf":
                    traverse_ns += key_match_ns
                    inner_effective += 1
                visited_ids.append(touch.node_id)
                bytes_fetched += (
                    -(-span // CACHE_LINE_BYTES)
                ) * CACHE_LINE_BYTES
                bytes_used += used

            nodes_visited += len(effective)
            effective_matches += inner_effective

            other_ns = leaf_op_ns
            if record.structure_modified:
                other_ns += structure_op_ns

            is_write = record.op_kind in ("write", "delete")
            sync_ns = 0.0
            if is_write:
                # One lock or CAS on the written node, and one on its
                # parent when the write changes the node's type (ROWEX);
                # queueing behind other writers is the wave model's.
                n_sync = 2 if record.node_type_changed else 1
                acquisitions += n_sync
                if sync_is_lock:
                    sync_ns = n_sync * lock_ns
                else:
                    target_addr = record.target_address
                    cached = target_addr is not None and llc_contains(target_addr)
                    sync_ns = n_sync * (CAS_L1_NS if cached else CAS_RAM_NS)

            target = record.target_node_id
            if target is None:
                target = -1 - (n_priced % 997)  # misses conflict with nobody
            n_priced += 1
            targets.append(target)
            write_flags.append(is_write)
            service_list.append(traverse_ns + sync_ns + other_ns)
            hold_list.append(sync_ns + other_ns)
            traverse_list.append(traverse_ns)
            sync_list.append(sync_ns)
            other_list.append(other_ns)

        result.partial_key_matches = effective_matches
        result.nodes_visited = nodes_visited
        result.node_access_counts.update(visited_ids)
        result.distinct_nodes_visited = len(set(visited_ids))
        result.bytes_fetched = bytes_fetched
        result.bytes_used = bytes_used
        result.cache_hit_rate = llc.stats.hit_rate
        result.lock_acquisitions = acquisitions

        self._price_run(result, priced, dram_lines)
        if self.telemetry is not None:
            registry = self.telemetry.registry
            llc.report_metrics(registry, prefix="llc")
            registry.counter("engine.dram_lines", dram_lines)
            registry.counter("engine.lock_contentions", result.lock_contentions)
            registry.counter("engine.lock_acquisitions", result.lock_acquisitions)
        return result

    # ------------------------------------------------------------------

    def _path_cache_skip(self, cache: dict, record: TraversalRecord) -> int:
        """Leading touches served by the engine's path cache (0 if none).

        The cache maps a short key tag to the node-id path its last
        traversal took through the top levels; a hit lets the next
        operation with the same tag start below those levels.  Skips are
        validated against the current trace, so a stale entry (structure
        changed underneath) degrades to a shorter skip, never to a wrong
        one — mirroring SMART's read-delegation validation.
        """
        if self.path_cache_levels <= 0:
            return 0
        key = record.key[: self.path_cache_tag_bytes]
        path = record.node_ids
        cached = cache.get(key)
        skipped = 0
        if cached is not None:
            limit = min(len(cached), max(0, len(path) - 1))
            while skipped < limit and cached[skipped] == path[skipped]:
                skipped += 1
        if len(cache) >= self.path_cache_entries and key not in cache:
            cache.pop(next(iter(cache)))
        cache[key] = path[: self.path_cache_levels]
        return skipped

    def _price_run(
        self, result: RunResult, priced: PricedRun, dram_lines: int
    ) -> None:
        costs = self.costs
        simulator = WaveSimulator(
            n_workers=costs.n_threads,
            window=costs.window,
            contention_penalty_ns=costs.contention_penalty_ns,
        )
        report = simulator.run(
            targets=priced.targets,
            is_write=priced.is_write,
            cost_ns=priced.service_ns,
            hold_ns=priced.hold_ns,
        )

        threads = costs.n_threads
        n_priced = len(priced.targets)
        traverse_total = sum(priced.traverse_ns) * 1e-9
        sync_total = sum(priced.sync_ns) * 1e-9
        other_total = sum(priced.other_ns) * 1e-9

        restart_seconds = 0.0
        if self.reader_restart and n_priced and report.conflicted_readers:
            # Each conflicted reader re-walks from the root: re-pay the
            # mean traversal once per restart (restarted walks are warm,
            # so the mean — not the tail — is the right price).
            mean_traverse = traverse_total / n_priced
            restart_seconds = report.conflicted_readers * mean_traverse
            sync_total += restart_seconds

        parallel = (traverse_total + sync_total + other_total) / threads
        bandwidth_seconds = (
            dram_lines * CACHE_LINE_BYTES / (costs.dram_bandwidth_gb_s * 1e9)
        )
        base = max(parallel, bandwidth_seconds)
        elapsed = base + report.serialization_seconds

        result.breakdown = TimeBreakdown(
            traverse_seconds=traverse_total / threads + max(0.0, base - parallel),
            sync_seconds=sync_total / threads + report.serialization_seconds,
            other_seconds=other_total / threads,
        )
        result.elapsed_seconds = elapsed
        result.lock_contentions = report.contentions
        result.latencies_ns = np.asarray(report.latencies_ns)
        result.energy_joules = self.platform.energy_joules(elapsed)
        result.extra["windows"] = report.n_windows
        result.extra["serialization_seconds"] = report.serialization_seconds
        result.extra["bandwidth_seconds"] = bandwidth_seconds
        result.extra["dram_lines"] = dram_lines
        result.extra["read_restarts"] = (
            report.conflicted_readers if self.reader_restart else 0
        )
