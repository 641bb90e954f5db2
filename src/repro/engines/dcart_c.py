"""DCART-C: the software-only CTT implementation (paper §IV-A).

The paper runs its Combine–Traverse–Trigger model on the 96-core Xeon to
isolate what the *model* buys without hardware support.  Functionally it
matches DCART: operations are combined into 16 prefix buckets, buckets
execute independently (one thread each, so same-node operations
serialise for free), and shortcuts skip repeated traversals.

It only *slightly* outperforms SMART (Fig. 9) because on a CPU the model
itself costs instructions: hashing every operation into a bucket,
probing and maintaining the shortcut hash table (usually a cache miss),
and the bucket-parallel phase uses at most 16 of the 96 cores.  Those
overheads are exactly the :class:`SoftwareCttCosts` constants; the
*benefits* (fewer matches, fewer contentions) are computed from the same
mechanisms as the accelerator, so Figs. 7 and 8 group DCART-C with
DCART while Fig. 9 separates them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.art.nodes import Leaf
from repro.art.stats import CACHE_LINE_BYTES, lines_for
from repro.art.tree import AdaptiveRadixTree
from repro.core.bucket_table import BucketTables
from repro.core.config import OP_RECORD_BYTES
from repro.core.prefixing import PrefixExtractor
from repro.engines.base import Engine, RunResult, TimeBreakdown, apply_operation
from repro.memsim.cache import SetAssociativeCache
from repro.model.costs import (
    CpuCosts,
    DEFAULT_CPU_COSTS,
    DEFAULT_CTT_COSTS,
    SoftwareCttCosts,
)
from repro.model.platform import CPU_PLATFORM, Platform
from repro.workloads.ops import OpKind, Workload

CALIBRATION_SAMPLE = 4096
N_BUCKETS = 16


class DcartCEngine(Engine):
    """The CTT processing model on the Xeon host."""

    name = "DCART-C"

    def __init__(
        self,
        platform: Platform = CPU_PLATFORM,
        costs: CpuCosts = DEFAULT_CPU_COSTS,
        ctt_costs: SoftwareCttCosts = DEFAULT_CTT_COSTS,
    ):
        super().__init__(platform)
        self.costs = costs
        self.ctt = ctt_costs

    def run(
        self,
        workload: Workload,
        tree: Optional[AdaptiveRadixTree] = None,
        records=None,  # ignored: the CTT takes shortcut paths of its own
    ) -> RunResult:
        if tree is None:
            tree = self.build_tree(workload)
        result = self._new_result(workload)
        costs, ctt = self.costs, self.ctt

        extractor = PrefixExtractor.calibrate(
            workload.loaded_keys[:CALIBRATION_SAMPLE], N_BUCKETS
        )
        # The PCU's bucketing in software; its spill accounting is unused.
        tables = BucketTables(
            extractor, N_BUCKETS, costs.window * OP_RECORD_BYTES
        )
        llc = SetAssociativeCache(costs.llc_bytes, ways=16)
        shortcuts: Dict[bytes, Tuple[int, Optional[int]]] = {}

        matches = visited = 0
        seen_nodes = set()
        bytes_fetched = bytes_used = 0
        dram_lines = 0
        contentions = 0
        global_sync_ops = 0
        elapsed_ns = 0.0
        traverse_total = sync_total = other_total = 0.0
        latencies: List[Tuple[int, float]] = []
        shortcut_hits = 0

        from repro.core.sou import count_contended_groups

        stream = workload.operations
        for ids in stream.batches(costs.window):
            # Combine phase (parallelised scan; still pure overhead).
            combine_ns = len(ids) * (ctt.combine_ns + ctt.dispatch_ns) / min(
                costs.n_threads, max(1, len(ids))
            )
            tables.clear()
            tables.combine(stream, ids)

            bucket_ns = [0.0] * N_BUCKETS
            sync_targets: List[int] = []
            coalesced_groups = 0
            for bucket_id, bucket in enumerate(tables.buckets):
                coalesced_groups += count_contended_groups(
                    bucket.keys, bucket.kinds
                )
                clock = 0.0
                for op_id, kind, key, value, scan_count in zip(
                    bucket.op_ids.tolist(),
                    bucket.kinds,
                    bucket.keys,
                    bucket.values,
                    bucket.scan_counts,
                ):
                    op_ns, op_stats = self._process_op(
                        kind, key, value, scan_count,
                        tree, shortcuts, llc, extractor.byte_offset,
                    )
                    clock += op_ns
                    latencies.append((op_id, combine_ns + clock))
                    matches += op_stats["matches"]
                    visited += op_stats["visited"]
                    seen_nodes |= op_stats["seen"]
                    for node_id, count in op_stats["counts"].items():
                        result.node_access_counts[node_id] += count
                    bytes_fetched += op_stats["fetched"]
                    bytes_used += op_stats["used"]
                    dram_lines += op_stats["dram_lines"]
                    traverse_total += op_stats["traverse_ns"]
                    other_total += op_stats["other_ns"]
                    shortcut_hits += op_stats["shortcut_hit"]
                    if op_stats["global_sync"]:
                        sync_targets.append(op_stats["target"])
                bucket_ns[bucket_id] = clock

            # Residual cross-bucket synchronisation: each shared-ancestor
            # lock contends with the other concurrently running bucket
            # workers, plus direct collisions on the same target.
            active_buckets = tables.nonempty_buckets()
            target_counts = Counter(sync_targets)
            batch_contentions = sum(c - 1 for c in target_counts.values() if c > 1)
            batch_contentions += len(sync_targets) * max(0, active_buckets - 1)
            # One contention per coalesced write group (single lock for
            # the whole group), as in the accelerator.
            batch_contentions += coalesced_groups
            contentions += batch_contentions
            global_sync_ops += len(sync_targets)
            sync_ns = (
                len(sync_targets) * costs.lock_uncontended_ns
                + batch_contentions * costs.contention_penalty_ns
            )

            # The 16 buckets run on 16 threads; the batch finishes with
            # its slowest bucket (the DRAM bandwidth ceiling is applied
            # globally below).
            operate_ns = max(bucket_ns) if bucket_ns else 0.0
            elapsed_ns += combine_ns + operate_ns + sync_ns
            sync_total += sync_ns
            other_total += combine_ns

        bandwidth_seconds = dram_lines * CACHE_LINE_BYTES / (
            costs.dram_bandwidth_gb_s * 1e9
        )
        elapsed = max(elapsed_ns * 1e-9, bandwidth_seconds)

        result.elapsed_seconds = elapsed
        result.partial_key_matches = matches
        result.nodes_visited = visited
        result.distinct_nodes_visited = len(seen_nodes)
        result.bytes_fetched = bytes_fetched
        result.bytes_used = bytes_used
        result.cache_hit_rate = llc.stats.hit_rate
        result.lock_contentions = contentions
        result.lock_acquisitions = global_sync_ops
        latencies.sort()
        result.latencies_ns = np.asarray([lat for _, lat in latencies])
        result.energy_joules = self.platform.energy_joules(elapsed)

        scale = elapsed / max(elapsed_ns * 1e-9, 1e-30)
        result.breakdown = TimeBreakdown(
            traverse_seconds=traverse_total * 1e-9 * scale,
            sync_seconds=sync_total * 1e-9 * scale,
            other_seconds=max(
                0.0, elapsed - (traverse_total + sync_total) * 1e-9 * scale
            ),
        )
        result.extra.update(
            {
                "prefix_byte_offset": extractor.byte_offset,
                "shortcut_hits": shortcut_hits,
                "shortcut_entries": len(shortcuts),
                "global_sync_ops": global_sync_ops,
                "bandwidth_seconds": bandwidth_seconds,
            }
        )
        return result

    # ------------------------------------------------------------------

    def _process_op(
        self,
        kind: OpKind,
        key: bytes,
        value: Optional[object],
        scan_count: int,
        tree: AdaptiveRadixTree,
        shortcuts: Dict[bytes, Tuple[int, Optional[int]]],
        llc: SetAssociativeCache,
        shared_depth_bytes: int,
    ) -> Tuple[float, dict]:
        costs, ctt = self.costs, self.ctt
        stats = {
            "matches": 0,
            "visited": 0,
            "seen": set(),
            "counts": Counter(),
            "fetched": 0,
            "used": 0,
            "dram_lines": 0,
            "traverse_ns": 0.0,
            "other_ns": 0.0,
            "shortcut_hit": 0,
            "global_sync": False,
            "target": -1,
        }

        def fetch(node) -> float:
            used = node.used_bytes_for_descent()
            span = min(node.size_bytes, 16 + used)
            hits, misses = llc.access(node.address, span)
            stats["dram_lines"] += misses
            stats["visited"] += 1
            stats["seen"].add(node.node_id)
            stats["counts"][node.node_id] += 1
            stats["fetched"] += lines_for(span) * CACHE_LINE_BYTES
            stats["used"] += used
            return (
                costs.node_fetch_dram_ns if misses else costs.node_fetch_cached_ns
            )

        op_ns = ctt.shortcut_lookup_ns
        entry = shortcuts.get(key)
        if entry is not None and kind is not OpKind.DELETE:
            node = tree.node_at(entry[0])
            if isinstance(node, Leaf) and node.key == key:
                traverse_ns = fetch(node)
                if kind is OpKind.WRITE:
                    node.value = value
                    parent = (
                        tree.node_at(entry[1]) if entry[1] is not None else None
                    )
                    if parent is not None:
                        traverse_ns += fetch(parent)
                stats["traverse_ns"] = traverse_ns
                stats["other_ns"] = ctt.shortcut_lookup_ns + costs.leaf_op_ns
                stats["shortcut_hit"] = 1
                return op_ns + traverse_ns + costs.leaf_op_ns, stats
            shortcuts.pop(key, None)

        record = apply_operation(tree, kind, key, value, scan_count)
        traverse_ns = 0.0
        for touch in record.touches:
            hits, misses = llc.access(touch.address, touch.fetch_bytes)
            stats["dram_lines"] += misses
            traverse_ns += (
                costs.node_fetch_dram_ns if misses else costs.node_fetch_cached_ns
            )
            if touch.kind != "Leaf":
                traverse_ns += costs.key_match_ns
                stats["matches"] += 1
            stats["visited"] += 1
            stats["seen"].add(touch.node_id)
            stats["counts"][touch.node_id] += 1
            stats["fetched"] += touch.fetch_lines * CACHE_LINE_BYTES
            stats["used"] += touch.used_bytes

        other_ns = ctt.shortcut_lookup_ns + costs.leaf_op_ns
        if record.structure_modified:
            other_ns += costs.structure_op_ns
            stats["global_sync"] = self._modifies_shared_ancestor(
                record, shared_depth_bytes
            )
            stats["target"] = record.target_node_id or -1
        if record.outcome in ("hit", "updated") and record.target_address is not None:
            shortcuts[key] = (record.target_address, record.parent_address)
            other_ns += ctt.shortcut_maintain_ns
        elif record.outcome == "deleted":
            shortcuts.pop(key, None)

        stats["traverse_ns"] = traverse_ns
        stats["other_ns"] = other_ns
        return traverse_ns + other_ns, stats

    @staticmethod
    def _modifies_shared_ancestor(record, shared_depth_bytes: int) -> bool:
        from repro.core.sou import modifies_shared_ancestor

        return modifies_shared_ancestor(record, shared_depth_bytes)
