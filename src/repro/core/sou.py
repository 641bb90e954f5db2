"""The Shortcut-based Operating Unit (paper §III-C, Fig. 5 right).

Four pipeline stages per operation:

1. ``Index_Shortcut``   — probe the Shortcut_Table for the operation's
   key (2 cycles in the Shortcut_buffer, HBM latency otherwise);
2. ``Traverse_Tree``    — on a valid shortcut, fetch the target (and,
   for writes, its parent) directly by address; otherwise perform the
   top-down partial-key-matching walk, each node through the
   Tree_buffer;
3. ``Trigger_Operation``— apply all coalesced work at the target node;
4. ``Generate_Shortcut``— record the match result for reuse.

Timing model: the stages are pipelined, so in steady state an operation
costs the initiation interval (2 cycles) *unless* it stalls the pipeline —
off-chip fetches and structural modifications are the stalls, and they
are billed at full latency.  Stale shortcuts (the address died under a
split/grow/merge) are detected by validating the fetched node against the
operation's key, then repaired by re-traversal, exactly as §III-C's
"entry needs to be updated when the operation causes a change in the
type of Node_X" requires.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

import numpy as np

from repro.art.nodes import Leaf
from repro.art.stats import CACHE_LINE_BYTES, TraversalRecord
from repro.art.tree import AdaptiveRadixTree
from repro.core.config import SHORTCUT_ENTRY_BYTES
from repro.core.dispatcher import DispatchedBucket
from repro.core.shortcut_table import ShortcutTable
from repro.core.tree_buffer import ValueAwareTreeBuffer
from repro.engines.base import apply_operation
from repro.model.costs import FpgaCosts
from repro.workloads.ops import IdArray, OpKind

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

#: Steady-state initiation interval of the 4-stage pipeline (cycles/op).
PIPELINE_II = 2


@dataclass(slots=True)
class BucketOutcome:
    """Counters and timing for one bucket processed by one SOU."""

    bucket_id: int
    sou_id: int
    n_ops: int = 0
    cycles: int = 0
    partial_key_matches: int = 0
    nodes_visited: int = 0
    bytes_fetched: int = 0
    bytes_used: int = 0
    offchip_lines: int = 0
    shortcut_hits: int = 0
    shortcut_misses: int = 0
    stale_shortcuts: int = 0
    #: Stale hits whose entry was tampered with by fault injection; each
    #: paid a bounded retry-with-backoff before falling back to a full
    #: traversal (see :mod:`repro.faults`).
    corrupted_shortcut_hits: int = 0
    traversals: int = 0
    # (target_node_id, is_write) of ops that modified an ancestor shared
    # across buckets — the only ops needing cross-SOU synchronisation.
    global_sync_targets: List[int] = field(default_factory=list)
    # Coalesced groups (same key, >=2 ops, >=1 write) in this bucket:
    # each acquires its node lock once — "a single lock for multiple
    # operations" (paper §IV-B) — and is counted as one contention.
    coalesced_contended_groups: int = 0
    # Completion cycle (within this bucket) of every op, for latency.
    completion_cycles: List[int] = field(default_factory=list)
    #: Ids of the bucket's ops, aligned with ``completion_cycles``.
    op_ids: IdArray = field(default_factory=lambda: np.zeros(0, np.int64))
    # Node ids in visit order; the accelerator folds every bucket's list
    # into one Counter at aggregation time (one counting pass over the
    # run instead of a per-bucket count plus a per-bucket merge).
    visited_ids: List[int] = field(default_factory=list)


class ShortcutOperatingUnit:
    """One SOU; stateless across buckets except through shared tables."""

    def __init__(
        self,
        sou_id: int,
        tree: AdaptiveRadixTree,
        shortcuts: Optional[ShortcutTable],
        tree_buffer: ValueAwareTreeBuffer,
        costs: FpgaCosts,
        shared_depth_bytes: int,
        injector: Any = None,
        value_aware: bool = True,
    ) -> None:
        self.sou_id = sou_id
        self.tree = tree
        self.shortcuts = shortcuts
        self.tree_buffer = tree_buffer
        #: False for the LRU ablation: every fetch then carries one
        #: constant value, under which the Tree_buffer is exact LRU.
        self.value_aware = value_aware
        self.costs = costs
        #: Key-byte depth at or above which a node is shared across
        #: buckets (ancestors of the bucket-discriminating byte).
        self.shared_depth_bytes = shared_depth_bytes
        #: Optional :class:`~repro.faults.FaultInjector`: supplies the
        #: slow-down multiplier and accounts corrupted-shortcut retries.
        self.injector = injector
        # Cumulative run totals for the metrics registry.  Updated once
        # per *bucket* (from the hot loop's locals), never per op, so
        # telemetry costs nothing on the inner path.
        self.buckets_processed = 0
        self.ops_processed = 0
        self.busy_cycles = 0
        self.shortcut_hits_total = 0
        self.shortcut_misses_total = 0
        self.shortcut_buffer_hits_total = 0
        self.shortcut_buffer_misses_total = 0
        self.stale_shortcuts_total = 0
        self.corrupted_hits_total = 0
        self.traversals_total = 0
        self.nodes_visited_total = 0
        self.offchip_lines_total = 0
        self.structure_mods_total = 0
        self.shortcuts_generated_total = 0
        self.sync_ops_total = 0
        # Stall constants, hoisted out of the per-op loop: the throughput
        # cost of an off-chip access is its latency divided by the
        # outstanding-request depth (latency hiding), rounded up.
        mlp = costs.memory_parallelism
        self._shortcut_miss_stall = -(
            -(costs.shortcut_offchip_cycles - costs.shortcut_lookup_cycles)
            // mlp
        )
        self._tree_miss_stall = -(-costs.tree_offchip_cycles // mlp)

    # ------------------------------------------------------------------

    def process_bucket(self, bucket: DispatchedBucket) -> BucketOutcome:
        """Drain one bucket through the 4-stage pipeline.

        This is the simulator's innermost loop (hundreds of thousands of
        calls per run), so the shortcut fast path, the Tree_buffer fetch
        and the per-visit counters are inlined here with every attribute
        lookup hoisted to a local.  The cycle arithmetic is kept
        *identical* to the original per-op helpers — the golden
        determinism test (tests/harness/test_golden_determinism.py)
        holds this loop to bit-identical results.
        """
        ops = bucket.operations
        keys, kinds = ops.keys, ops.kinds
        outcome = BucketOutcome(
            bucket_id=bucket.bucket_id, sou_id=self.sou_id, op_ids=ops.op_ids
        )
        outcome.coalesced_contended_groups = count_contended_groups(keys, kinds)
        injector = self.injector
        slowdown = (
            injector.slowdown_factor(self.sou_id)
            if injector is not None
            else 1.0
        )
        slow = slowdown > 1.0

        tree = self.tree
        node_at = tree._by_address.get
        shortcuts = self.shortcuts
        # The Shortcut_buffer probe (LruBuffer.lookup + dict get + pull
        # on-chip) is unrolled here: one probe per operation makes the
        # call overhead itself measurable.  Accounting (hits, misses,
        # insert order) matches ShortcutTable.lookup exactly.
        if shortcuts is not None:
            sc_entries_get = shortcuts._entries.get
            sc_buf = shortcuts.buffer
            sc_buf_entries = sc_buf._entries
            sc_buf_move = sc_buf_entries.move_to_end
            sc_buf_insert = sc_buf.insert
            sc_buf_pop = sc_buf_entries.popitem
            sc_cap = sc_buf.capacity_bytes
        tb = self.tree_buffer
        fetch_node = tb.fetch
        fvalue = float(bucket.value) if self.value_aware else 0.0
        # The hit branch of ValueAwareTreeBuffer.fetch is inlined at the
        # three fetch sites below: a resident node moves to the end of
        # its value group with a fresh touch stamp, or to the group of
        # this bucket's value; a miss is one fetch() call, which owns
        # admission and eviction.  Hits are counted here and flushed
        # once per bucket.  The normalised value is loop-invariant per
        # bucket (one value, one decay multiplier).  Groups are looked up
        # per touch, never held across ops: an eviction or invalidation
        # may delete one mid-bucket.
        tb_norm_get = tb._norm.get
        tb_groups = tb._groups
        tb_tick = tb._tick
        tb_regroup = tb._regroup
        norm = fvalue / tb._mult
        tb_hits = 0
        shortcut_miss_stall = self._shortcut_miss_stall
        tree_miss_stall = self._tree_miss_stall
        structure_cycles = self.costs.structure_op_cycles
        read_kind = OpKind.READ
        write_kind = OpKind.WRITE
        ceil = math.ceil

        clock = 0
        completions_append = outcome.completion_cycles.append
        sync_targets = outcome.global_sync_targets
        visited_ids: List[int] = []  # node ids, in visit order
        visited_append = visited_ids.append
        bytes_fetched = 0
        bytes_used = 0
        offchip_lines = 0
        partial_matches = 0
        shortcut_hits = 0
        shortcut_misses = 0
        stale_shortcuts = 0
        traversals = 0
        sc_buf_hits = 0
        sc_buf_misses = 0
        structure_mods = 0
        shortcuts_generated = 0

        for key, kind, value, scan_count in zip(
            keys, kinds, ops.values, ops.scan_counts
        ):
            stall_cycles = 0
            served = False

            entry = None
            if shortcuts is not None:
                entry = sc_entries_get(key)
                if key in sc_buf_entries:
                    sc_buf_move(key)
                    sc_buf_hits += 1
                else:
                    sc_buf_misses += 1
                    stall_cycles = shortcut_miss_stall
                    if entry is not None:
                        # Off-chip hit pulls the entry on chip for reuse
                        # (LruBuffer.insert inlined: the key is known to
                        # be absent from the buffer on this branch).
                        if SHORTCUT_ENTRY_BYTES > sc_cap:
                            sc_buf_insert(key, SHORTCUT_ENTRY_BYTES)
                        else:
                            scb_used = sc_buf.used_bytes
                            while scb_used + SHORTCUT_ENTRY_BYTES > sc_cap:
                                _, old_size = sc_buf_pop(last=False)
                                scb_used -= old_size
                                sc_buf.evictions += 1
                            sc_buf_entries[key] = SHORTCUT_ENTRY_BYTES
                            sc_buf.used_bytes = (
                                scb_used + SHORTCUT_ENTRY_BYTES
                            )
                if entry is not None and (
                    kind is read_kind or kind is write_kind
                ):
                    # Shortcut fast path: fetch the target by address and
                    # validate it still holds this op's key.
                    node = node_at(entry.target_address)
                    if type(node) is Leaf and node.key == key:
                        used = len(node.key) + 8  # used_bytes_for_descent
                        # For a Leaf, size_bytes (header + key + pointer)
                        # equals header + used, so the fetch span *is*
                        # the node size.
                        size = 16 + used
                        lines = -(-size // CACHE_LINE_BYTES)
                        addr = node.address
                        cur = tb_norm_get(addr)
                        if cur is None:
                            hit = fetch_node(addr, size, fvalue)
                        else:
                            tb_hits += 1
                            if cur == norm:
                                group = tb_groups[cur]
                                group.move_to_end(addr)
                                group[addr] = tb_tick()
                            else:
                                tb_regroup(addr, cur, norm)
                            hit = True
                        if hit:
                            fast_cycles = 0
                        else:
                            offchip_lines += lines
                            fast_cycles = tree_miss_stall
                        visited_append(node.node_id)
                        bytes_fetched += lines * CACHE_LINE_BYTES
                        bytes_used += used
                        if kind is write_kind:
                            node.value = value
                            parent_address = entry.parent_address
                            parent = (
                                node_at(parent_address)
                                if parent_address is not None
                                else None
                            )
                            if parent is not None:
                                if type(parent) is Leaf:
                                    p_used = len(parent.key) + 8
                                    p_size = 16 + p_used
                                    p_span = p_size
                                else:
                                    p_used = len(parent.prefix) + 9
                                    p_size = parent.size_bytes
                                    p_span = (
                                        p_size
                                        if p_size < 16 + p_used
                                        else 16 + p_used
                                    )
                                p_lines = -(-p_span // CACHE_LINE_BYTES)
                                addr = parent.address
                                cur = tb_norm_get(addr)
                                if cur is None:
                                    hit = fetch_node(addr, p_size, fvalue)
                                else:
                                    tb_hits += 1
                                    if cur == norm:
                                        group = tb_groups[cur]
                                        group.move_to_end(addr)
                                        group[addr] = tb_tick()
                                    else:
                                        tb_regroup(addr, cur, norm)
                                    hit = True
                                if not hit:
                                    offchip_lines += p_lines
                                    fast_cycles += tree_miss_stall
                                visited_append(parent.node_id)
                                bytes_fetched += p_lines * CACHE_LINE_BYTES
                                bytes_used += p_used
                        shortcut_hits += 1
                        if fast_cycles < PIPELINE_II:
                            fast_cycles = PIPELINE_II
                        cycles = stall_cycles + fast_cycles
                        if cycles < PIPELINE_II:
                            cycles = PIPELINE_II
                        served = True
                    else:
                        if entry.corrupted:
                            # Fault-injected corruption: the unit retries
                            # the off-chip table with exponential backoff
                            # before conceding, then repairs by full
                            # traversal like any stale entry.
                            stall_cycles += self._corrupted_retry(outcome)
                        stale_shortcuts += 1
                        shortcuts.note_stale(key)

            if not served:
                # Full traversal (Traverse_Tree the long way).
                record = apply_operation(tree, kind, key, value, scan_count)
                traversals += 1
                shortcut_misses += 1
                for t_node_id, addr, t_size, t_used, t_kind in record.touches:
                    fetch = t_size if t_size < 16 + t_used else 16 + t_used
                    lines = -(-fetch // CACHE_LINE_BYTES)
                    cur = tb_norm_get(addr)
                    if cur is None:
                        hit = fetch_node(addr, t_size, fvalue)
                    else:
                        tb_hits += 1
                        if cur == norm:
                            group = tb_groups[cur]
                            group.move_to_end(addr)
                            group[addr] = tb_tick()
                        else:
                            tb_regroup(addr, cur, norm)
                        hit = True
                    if not hit:
                        offchip_lines += lines
                        stall_cycles += tree_miss_stall
                    visited_append(t_node_id)
                    bytes_fetched += lines * CACHE_LINE_BYTES
                    bytes_used += t_used
                    if t_kind != "Leaf":
                        partial_matches += 1

                if record.structure_modified:
                    stall_cycles += structure_cycles
                    structure_mods += 1
                    self._invalidate_dead_nodes(record)
                    if modifies_shared_ancestor(
                        record, self.shared_depth_bytes
                    ):
                        sync_targets.append(record.target_node_id or -1)

                if shortcuts is not None:
                    record_outcome = record.outcome
                    if (
                        record_outcome in ("hit", "updated")
                        and record.target_address is not None
                    ):
                        shortcuts.generate(
                            key, record.target_address, record.parent_address
                        )
                        shortcuts_generated += 1
                    elif record_outcome == "deleted":
                        shortcuts.drop(key)

                cycles = (
                    stall_cycles if stall_cycles > PIPELINE_II else PIPELINE_II
                )

            if slow:
                cycles = ceil(cycles * slowdown)
            clock += cycles
            completions_append(clock)

        if shortcuts is not None:
            sc_buf.hits += sc_buf_hits
            sc_buf.misses += sc_buf_misses
        tb.hits += tb_hits
        outcome.n_ops = len(keys)
        outcome.cycles = clock
        outcome.nodes_visited = len(visited_ids)
        outcome.bytes_fetched = bytes_fetched
        outcome.bytes_used = bytes_used
        outcome.offchip_lines = offchip_lines
        outcome.partial_key_matches = partial_matches
        outcome.shortcut_hits = shortcut_hits
        outcome.shortcut_misses = shortcut_misses
        outcome.stale_shortcuts = stale_shortcuts
        outcome.traversals = traversals
        outcome.visited_ids = visited_ids
        # Cumulative totals for report_metrics: one batched update per
        # bucket, off the per-op path.
        self.buckets_processed += 1
        self.ops_processed += outcome.n_ops
        self.busy_cycles += clock
        self.shortcut_hits_total += shortcut_hits
        self.shortcut_misses_total += shortcut_misses
        self.shortcut_buffer_hits_total += sc_buf_hits
        self.shortcut_buffer_misses_total += sc_buf_misses
        self.stale_shortcuts_total += stale_shortcuts
        self.corrupted_hits_total += outcome.corrupted_shortcut_hits
        self.traversals_total += traversals
        self.nodes_visited_total += outcome.nodes_visited
        self.offchip_lines_total += offchip_lines
        self.structure_mods_total += structure_mods
        self.shortcuts_generated_total += shortcuts_generated
        self.sync_ops_total += len(sync_targets)
        return outcome

    def report_metrics(self, registry: "MetricsRegistry") -> None:
        """Write this unit's run totals into a MetricsRegistry.

        Per-unit counters are namespaced ``sou.<id>.*`` with one group
        per pipeline stage (Fig. 5 right); the unqualified ``sou.*``
        counters accumulate across units (each unit adds its share) and
        back the legacy ``result.extra`` view.
        """
        sid = self.sou_id
        counter = registry.counter
        counter(f"sou.{sid}.buckets", self.buckets_processed)
        counter(f"sou.{sid}.ops", self.ops_processed)
        counter(f"sou.{sid}.busy_cycles", self.busy_cycles)
        # Stage 1: Index_Shortcut (Shortcut_buffer probe + table lookup).
        counter(
            f"sou.{sid}.stage.index_shortcut.hits", self.shortcut_hits_total
        )
        counter(
            f"sou.{sid}.stage.index_shortcut.misses",
            self.shortcut_misses_total,
        )
        counter(
            f"sou.{sid}.stage.index_shortcut.buffer_hits",
            self.shortcut_buffer_hits_total,
        )
        counter(
            f"sou.{sid}.stage.index_shortcut.buffer_misses",
            self.shortcut_buffer_misses_total,
        )
        counter(
            f"sou.{sid}.stage.index_shortcut.stale", self.stale_shortcuts_total
        )
        counter(
            f"sou.{sid}.stage.index_shortcut.corrupted_hits",
            self.corrupted_hits_total,
        )
        # Stage 2: Traverse_Tree.
        counter(
            f"sou.{sid}.stage.traverse_tree.traversals", self.traversals_total
        )
        counter(
            f"sou.{sid}.stage.traverse_tree.nodes_visited",
            self.nodes_visited_total,
        )
        counter(
            f"sou.{sid}.stage.traverse_tree.offchip_lines",
            self.offchip_lines_total,
        )
        # Stage 3: Trigger_Operation.
        counter(f"sou.{sid}.stage.trigger_operation.ops", self.ops_processed)
        counter(
            f"sou.{sid}.stage.trigger_operation.structure_mods",
            self.structure_mods_total,
        )
        counter(
            f"sou.{sid}.stage.trigger_operation.global_sync_ops",
            self.sync_ops_total,
        )
        # Stage 4: Generate_Shortcut.
        counter(
            f"sou.{sid}.stage.generate_shortcut.generated",
            self.shortcuts_generated_total,
        )
        # Cross-unit aggregates (the extra view reads these).
        counter("sou.shortcut_hits", self.shortcut_hits_total)
        counter("sou.shortcut_misses", self.shortcut_misses_total)
        counter("sou.traversals", self.traversals_total)
        counter("sou.stale_shortcut_repairs", self.stale_shortcuts_total)
        counter("sou.busy_cycles", self.busy_cycles)

    def _corrupted_retry(self, outcome: BucketOutcome) -> int:
        """Bill the bounded retry-with-backoff on a corrupted entry."""
        limit = (
            self.injector.shortcut_retry_limit if self.injector is not None else 2
        )
        base = self.costs.shortcut_retry_base_cycles
        retry_cycles = sum(base << attempt for attempt in range(limit))
        outcome.corrupted_shortcut_hits += 1
        if self.injector is not None:
            self.injector.note_corrupted_hit(retry_cycles)
        return retry_cycles

    def _invalidate_dead_nodes(self, record: TraversalRecord) -> None:
        """Evict buffer entries whose addresses died in this mutation."""
        for touch in record.touches:
            if self.tree.node_at(touch.address) is None:
                self.tree_buffer.invalidate(touch.address)


def count_contended_groups(
    keys: Sequence[bytes], kinds: Sequence[OpKind]
) -> int:
    """Coalesced same-key groups (>=2 ops, >=1 write) in one bucket.

    ``keys`` and ``kinds`` are the bucket's ops, aligned.  Under the CTT
    model each such group serialises behind a *single* lock
    acquisition, so it registers one contention where an
    operation-centric engine would register ``k - 1``.
    """
    counts = Counter(keys)
    if len(counts) == len(keys):
        return 0  # every key unique: nothing coalesces
    write, delete = OpKind.WRITE, OpKind.DELETE
    writers = {
        key for key, kind in zip(keys, kinds) if kind is write or kind is delete
    }
    return sum(1 for key, count in counts.items() if count > 1 and key in writers)


def modifies_shared_ancestor(
    record: TraversalRecord, shared_depth_bytes: int
) -> bool:
    """Did the op modify (or lock) a node shared across buckets?

    Used by both DCART and DCART-C.  A node whose subtree begins at a
    key-byte depth at or above the bucket-discriminating byte
    (``shared_depth_bytes``) covers keys of several buckets; a
    structural change there must synchronise across SOUs.  ROWEX
    additionally locks the *parent* when the target changes type
    (§II-A), so a type change directly below a shared ancestor also
    synchronises.  Byte depth of the i-th path node = sum of
    (prefix_len + 1 edge byte) of the nodes above it, recoverable from
    the recorded ``used_bytes`` (= prefix_len + 1 + 8).

    The target of a split/grow may be a *newly created* node absent from
    the touch list; it then replaced the last node the walk touched and
    sits at that node's byte depth.
    """
    if record.target_node_id is None or not record.touches:
        return False
    depths = []
    depth = 0
    target_index = None
    for i, touch in enumerate(record.touches):
        depths.append(depth)
        if touch.node_id == record.target_node_id:
            target_index = i
            break
        if touch.kind != "Leaf":
            depth += max(0, touch.used_bytes - 9) + 1
    if target_index is None:
        target_index = len(depths) - 1
    if depths[target_index] <= shared_depth_bytes:
        return True
    # A node-type change locks the parent as well (ROWEX §II-A); if that
    # parent sits at shared depth the lock crosses buckets.
    if record.node_type_changed and target_index > 0:
        return depths[target_index - 1] <= shared_depth_bytes
    return False
