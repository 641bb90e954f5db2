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
        node_access_counts = result.node_access_counts
        bytes_fetched = bytes_used = 0
        dram_lines = 0
        contentions = 0
        global_sync_ops = 0
        elapsed_ns = 0.0
        traverse_total = sync_total = other_total = 0.0
        latencies: List[Tuple[int, float]] = []
        shortcut_hits = 0

        from repro.core.sou import count_contended_groups, modifies_shared_ancestor

        lookup_ns = ctt.shortcut_lookup_ns
        leaf_ns = costs.leaf_op_ns
        dram_ns = costs.node_fetch_dram_ns
        cached_ns = costs.node_fetch_cached_ns

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
                    entry = shortcuts.get(key)
                    if entry is not None and kind is not OpKind.DELETE:
                        leaf = tree.node_at(entry[0])
                        if isinstance(leaf, Leaf) and leaf.key == key:
                            # Shortcut hit: fetch the leaf, and on a write
                            # update it and fetch its parent too.
                            hit_nodes = [leaf]
                            if kind is OpKind.WRITE:
                                leaf.value = value
                                if entry[1] is not None:
                                    parent = tree.node_at(entry[1])
                                    if parent is not None:
                                        hit_nodes.append(parent)
                            traverse_ns = 0.0
                            for node in hit_nodes:
                                used = node.used_bytes_for_descent()
                                span = min(node.size_bytes, 16 + used)
                                _, misses = llc.access(node.address, span)
                                dram_lines += misses
                                visited += 1
                                seen_nodes.add(node.node_id)
                                node_access_counts[node.node_id] += 1
                                bytes_fetched += lines_for(span) * CACHE_LINE_BYTES
                                bytes_used += used
                                traverse_ns += dram_ns if misses else cached_ns
                            clock += lookup_ns + traverse_ns + leaf_ns
                            latencies.append((op_id, combine_ns + clock))
                            traverse_total += traverse_ns
                            other_total += lookup_ns + leaf_ns
                            shortcut_hits += 1
                            continue
                        shortcuts.pop(key, None)

                    record = apply_operation(tree, kind, key, value, scan_count)
                    traverse_ns = 0.0
                    for touch in record.touches:
                        _, misses = llc.access(touch.address, touch.fetch_bytes)
                        dram_lines += misses
                        traverse_ns += dram_ns if misses else cached_ns
                        if touch.kind != "Leaf":
                            traverse_ns += costs.key_match_ns
                            matches += 1
                        visited += 1
                        seen_nodes.add(touch.node_id)
                        node_access_counts[touch.node_id] += 1
                        bytes_fetched += touch.fetch_lines * CACHE_LINE_BYTES
                        bytes_used += touch.used_bytes

                    other_ns = lookup_ns + leaf_ns
                    if record.structure_modified:
                        other_ns += costs.structure_op_ns
                        if modifies_shared_ancestor(record, extractor.byte_offset):
                            sync_targets.append(record.target_node_id or -1)
                    if (
                        record.outcome in ("hit", "updated")
                        and record.target_address is not None
                    ):
                        shortcuts[key] = (
                            record.target_address, record.parent_address
                        )
                        other_ns += ctt.shortcut_maintain_ns
                    elif record.outcome == "deleted":
                        shortcuts.pop(key, None)
                    clock += traverse_ns + other_ns
                    latencies.append((op_id, combine_ns + clock))
                    traverse_total += traverse_ns
                    other_total += other_ns
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
