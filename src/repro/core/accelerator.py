"""The DCART accelerator top level (paper Fig. 4).

:class:`DcartAccelerator` wires the hardware units together and runs a
workload end to end:

1. **Calibrate** the prefix extractor on a key sample (§III-B's default —
   the key's first byte — where that byte discriminates; the first
   useful byte otherwise, reported in ``extra['prefix_byte_offset']``).
2. Per batch: the **PCU** combines operations into the 16 Bucket_Tables,
   the **Dispatcher** hands buckets to SOUs with their value estimates,
   and each **SOU** executes its buckets against the live ART through the
   Shortcut_Table and the value-aware Tree_buffer.
3. Cross-bucket structural writes (mutations of ancestors shared by
   several buckets) are the only operations requiring synchronisation;
   they serialise on a global lock — DCART's small residual in Fig. 7.
4. Batch cycles are ``max(slowest SOU, HBM bandwidth floor)`` plus the
   residual sync; the run composes batches with the §III-D overlap.

Ablation switches on :class:`~repro.core.config.DCARTConfig` disable
shortcuts, combining, the overlap, or value-aware buffering — each
reverts one §III design decision for the ablation benchmarks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.art.stats import CACHE_LINE_BYTES
from repro.art.tree import AdaptiveRadixTree
from repro.core.batching import overlap_timeline
from repro.core.bucket_table import BucketOps, BucketTables
from repro.core.config import DCARTConfig, SHORTCUT_ENTRY_BYTES
from repro.core.dispatcher import DispatchedBucket, Dispatcher
from repro.core.pcu import PrefixCombiningUnit
from repro.core.prefixing import PrefixExtractor
from repro.core.shortcut_table import ShortcutTable
from repro.core.sou import BucketOutcome, ShortcutOperatingUnit
from repro.core.tree_buffer import ValueAwareTreeBuffer
from repro.engines.base import Engine, RunResult, TimeBreakdown
from repro.model.costs import DEFAULT_FPGA_COSTS
from repro.model.platform import FPGA_PLATFORM, Platform
from repro.obs.metrics import MetricsRegistry, extra_view
from repro.obs.trace import BatchSample
from repro.workloads.ops import IS_WRITE, IdArray, OperationStream, Workload

#: Keys sampled from the loaded set for prefix calibration.
CALIBRATION_SAMPLE = 4096


def hbm_bandwidth_cycles(
    offchip_bytes: int,
    hbm_gb_s: float,
    clock_hz: float,
    blackout_cycles_per_line: Optional[int] = None,
) -> int:
    """Cycles the batch's off-chip traffic occupies the HBM channel.

    Ceil, not floor: a batch consuming any fraction of an HBM cycle
    still holds the channel for that whole cycle, so even one off-chip
    byte bills at least one cycle.

    ``hbm_gb_s <= 0`` models a full channel blackout (a chaos
    ``bandwidth_factor()`` of 0): instead of dividing by zero, every
    off-chip cache line stalls for ``blackout_cycles_per_line`` —
    ``FpgaCosts.hbm_blackout_cycles_per_line`` when not given.
    """
    if offchip_bytes <= 0:
        return 0
    if hbm_gb_s <= 0.0:
        if blackout_cycles_per_line is None:
            blackout_cycles_per_line = (
                DEFAULT_FPGA_COSTS.hbm_blackout_cycles_per_line
            )
        lines = math.ceil(offchip_bytes / CACHE_LINE_BYTES)
        return lines * blackout_cycles_per_line
    return math.ceil(offchip_bytes / (hbm_gb_s * 1e9) * clock_hz)


@dataclass
class BatchExecution:
    """What one executed batch cost and produced.

    The unit of work both execution modes share: the closed-loop
    :meth:`DcartAccelerator.run` accumulates these into a
    :class:`~repro.engines.base.RunResult`, and the open-loop serving
    simulator (:mod:`repro.serve`) prices queueing delay on top of them.
    ``service_cycles`` is the batch's full SOU-side bill — compute vs.
    HBM floor, plus sync, redispatch, and durability — while
    ``pcu_cycles`` is the combining time that precedes SOU dispatch.
    """

    batch_index: int
    n_ops: int
    pcu_cycles: int
    service_cycles: int
    compute_cycles: int
    bandwidth_cycles: int
    sync_cycles: int
    redispatch_cycles: int
    durability_cycles: int
    outcomes: List[BucketOutcome]
    per_sou: Dict[int, int]

    def completions(self, offset: int = 0) -> List[Tuple[int, int]]:
        """``(op_id, offset + completion cycle)`` of every executed op."""
        out: List[Tuple[int, int]] = []
        for outcome in self.outcomes:
            out.extend(zip(
                outcome.op_ids.tolist(),
                [offset + cycle for cycle in outcome.completion_cycles],
            ))
        return out


class AcceleratorSession:
    """The per-batch execution state of one DCART run.

    Owns the hardware units (PCU, Dispatcher, SOUs, Shortcut_Table,
    Tree_buffer) and every cross-batch accumulator, and executes one
    combined batch at a time via :meth:`execute_batch`.  Two drivers use
    it: :meth:`DcartAccelerator.run` drains a fixed workload closed-loop
    (batches of ``config.batch_size``, results bit-identical to the
    pre-session implementation), and the open-loop serving simulator
    feeds it batches formed by arrival time and deadline.  The caller is
    responsible for resetting the injector before the first batch and
    for closing the durability manager when done.
    """

    def __init__(
        self,
        accelerator: "DcartAccelerator",
        workload: Workload,
        tree: AdaptiveRadixTree,
    ):
        config = accelerator.config
        self.config = config
        self.costs = config.costs
        self.tree = tree
        self.extractor = accelerator._make_extractor(workload)
        self.tables = BucketTables(
            self.extractor, config.n_buckets, config.bucket_buffer_bytes
        )
        self.pcu = PrefixCombiningUnit(self.tables, self.costs)
        self.dispatcher = Dispatcher(config.n_sous)
        self.shortcuts = (
            ShortcutTable(config.shortcut_buffer_bytes)
            if config.enable_shortcuts
            else None
        )
        self.tree_buffer = ValueAwareTreeBuffer(config.tree_buffer_bytes)
        self.injector = accelerator.injector
        telemetry = accelerator.telemetry
        self.tracer = telemetry.tracer if telemetry is not None else None
        self.durability = accelerator.durability
        self.durability_cycles_total = 0
        if self.durability is not None:
            attach_seconds = self.durability.attach(tree)
            self.durability_cycles_total += int(attach_seconds * self.costs.clock_hz)
        self.sous = [
            ShortcutOperatingUnit(
                sou_id=i,
                tree=tree,
                shortcuts=self.shortcuts,
                tree_buffer=self.tree_buffer,
                costs=self.costs,
                shared_depth_bytes=self.extractor.byte_offset,
                injector=self.injector,
                value_aware=config.value_aware_tree_buffer,
            )
            for i in range(config.n_sous)
        ]
        # Cross-batch accumulators (read by the drivers at finalise time).
        self.contentions = 0
        self.global_sync_ops = 0
        self.sync_cycles_total = 0
        self.offchip_lines_total = 0
        self.redispatch_cycles_total = 0
        self.batches_executed = 0

    # ------------------------------------------------------------------

    def execute_batch(
        self, stream: OperationStream, ids: IdArray, batch_index: int
    ) -> BatchExecution:
        """Combine, dispatch, and execute the batch ``ids`` of ``stream``;
        bill its cycles."""
        config = self.config
        costs = self.costs
        injector = self.injector
        durability = self.durability
        self.tree_buffer.decay()
        if injector is not None:
            injector.start_batch(
                batch_index, self.dispatcher, self.shortcuts, self.tree_buffer,
                durability=durability,
            )
        if config.enable_combining:
            pcu_outcome = self.pcu.combine_batch(stream, ids)
            dispatched = self.dispatcher.dispatch(self.tables)
            pcu_cycles = pcu_outcome.cycles
        else:
            dispatched = self._round_robin(stream, ids)
            pcu_cycles = 0

        # Write-ahead: the combined batch reaches the log (and its
        # COMMIT fsync point) before any SOU may mutate the tree.
        batch_durability_cycles = 0
        if durability is not None:
            wal_seconds = durability.log_batch(batch_index, stream, ids)
            batch_durability_cycles += int(wal_seconds * costs.clock_hz)

        outcomes = [self.sous[b.sou_id].process_bucket(b) for b in dispatched]

        per_sou: Dict[int, int] = {}
        batch_offchip_lines = 0
        for outcome in outcomes:
            per_sou[outcome.sou_id] = per_sou.get(outcome.sou_id, 0) + outcome.cycles
            batch_offchip_lines += outcome.offchip_lines
        compute_cycles = max(per_sou.values()) if per_sou else 0

        # Residual synchronisation: structural writes to shared
        # ancestors serialise on a global lock across SOUs.
        sync_targets: List[int] = []
        for outcome in outcomes:
            sync_targets.extend(outcome.global_sync_targets)
        batch_sync_cycles = len(sync_targets) * costs.global_sync_cycles
        counts = Counter(sync_targets)
        self.contentions += sum(c - 1 for c in counts.values() if c > 1)
        # Each shared-ancestor lock stalls the other active SOUs.
        active_sous = len({o.sou_id for o in outcomes})
        self.contentions += len(sync_targets) * max(0, active_sous - 1)
        # One contention per coalesced write group (single lock for
        # the whole group, vs. k-1 contentions operation-centric).
        self.contentions += sum(o.coalesced_contended_groups for o in outcomes)
        if not config.enable_combining:
            # Without combining, same-node writes land on different
            # SOUs and must synchronise like any shared write.
            extra = self._uncombined_conflicts(stream, ids)
            self.contentions += extra
            batch_sync_cycles += extra * costs.global_sync_cycles
        self.global_sync_ops += len(sync_targets)
        self.sync_cycles_total += batch_sync_cycles

        # HBM bandwidth floor for the batch's off-chip traffic.
        offchip_bytes = batch_offchip_lines * CACHE_LINE_BYTES
        if self.shortcuts is not None:
            offchip_bytes += sum(o.shortcut_misses for o in outcomes) * (
                SHORTCUT_ENTRY_BYTES
            )
        hbm_gb_s = costs.hbm_bandwidth_gb_s
        if injector is not None:
            # A throttle window narrows the effective HBM bandwidth
            # (factor 0 = blackout, priced per line below).
            hbm_gb_s *= injector.bandwidth_factor()
        bandwidth_cycles = hbm_bandwidth_cycles(
            offchip_bytes, hbm_gb_s, costs.clock_hz,
            blackout_cycles_per_line=costs.hbm_blackout_cycles_per_line,
        )
        self.offchip_lines_total += batch_offchip_lines
        # Failover re-dispatch: the Dispatcher re-targets each of a
        # failed unit's buckets, serialised like any dispatch step.
        redispatch_cycles = (
            self.dispatcher.failovers_last_batch * costs.redispatch_cycles
        )
        self.redispatch_cycles_total += redispatch_cycles
        # The batch is fully applied: checkpoint if one is due.
        if durability is not None:
            ckpt_seconds = durability.maybe_checkpoint(
                batch_index, self.tree, self.shortcuts, self.tables
            )
            batch_durability_cycles += int(ckpt_seconds * costs.clock_hz)
            self.durability_cycles_total += batch_durability_cycles
        batch_cycles = (
            max(compute_cycles, bandwidth_cycles)
            + batch_sync_cycles
            + redispatch_cycles
            + batch_durability_cycles
        )
        if self.tracer is not None:
            self.tracer.record_batch(BatchSample(
                batch_index=batch_index,
                n_ops=len(ids),
                pcu_cycles=pcu_cycles,
                per_sou_cycles=dict(per_sou),
                compute_cycles=compute_cycles,
                bandwidth_cycles=bandwidth_cycles,
                sync_cycles=batch_sync_cycles,
                redispatch_cycles=redispatch_cycles,
                durability_cycles=batch_durability_cycles,
            ))
        if injector is not None:
            injector.end_batch(batch_index, len(ids), batch_cycles, per_sou)
        self.batches_executed += 1
        return BatchExecution(
            batch_index=batch_index,
            n_ops=len(ids),
            pcu_cycles=pcu_cycles,
            service_cycles=batch_cycles,
            compute_cycles=compute_cycles,
            bandwidth_cycles=bandwidth_cycles,
            sync_cycles=batch_sync_cycles,
            redispatch_cycles=redispatch_cycles,
            durability_cycles=batch_durability_cycles,
            outcomes=outcomes,
            per_sou=per_sou,
        )

    # ------------------------------------------------------------------

    def _round_robin(
        self, stream: OperationStream, ids: IdArray
    ) -> List[DispatchedBucket]:
        """No-combining ablation: arrival order, round-robin over SOUs.

        Routing still goes through the dispatcher so fail-stopped units
        are skipped (their slices fail over like any bucket would).
        """
        dispatcher = self.dispatcher
        n_sous = self.config.n_sous
        dispatcher.failovers_last_batch = 0
        out: List[DispatchedBucket] = []
        for i in range(min(n_sous, len(ids))):
            ops = BucketOps.gather(stream, ids[i::n_sous])
            sou_id = dispatcher.route(i)
            if sou_id != i:
                dispatcher.failovers += 1
                dispatcher.failovers_last_batch += 1
            out.append(
                DispatchedBucket(
                    bucket_id=i, sou_id=sou_id, operations=ops, value=len(ops)
                )
            )
        return out

    @staticmethod
    def _uncombined_conflicts(stream: OperationStream, ids: IdArray) -> int:
        """Same-key write collisions within an uncombined batch."""
        keys = stream.keys[ids].tolist()
        writes = IS_WRITE[stream.kind_codes[ids]].tolist()
        writers: Counter = Counter()
        touched: Counter = Counter()
        for key, is_write in zip(keys, writes):
            touched[key] += 1
            if is_write:
                writers[key] += 1
        return sum(
            touched[key] - 1 for key, count in writers.items() if touched[key] > 1
        )

    # ------------------------------------------------------------------

    def report_metrics(self, registry: MetricsRegistry) -> None:
        """Every unit's counters, in the same shape either driver sees."""
        self.pcu.report_metrics(registry)
        self.dispatcher.report_metrics(registry)
        for sou in self.sous:
            sou.report_metrics(registry)
        if self.shortcuts is not None:
            self.shortcuts.report_metrics(registry)
        else:
            # Shortcut ablation: the view's keys must still exist.
            registry.gauge("shortcut_table.entries", 0)
            registry.gauge("shortcut_table.buffer_hit_rate", 0.0)
            registry.counter("shortcut_table.stale_hits", 0)
        self.tree_buffer.report_metrics(registry)


class DcartAccelerator(Engine):
    """DCART on the Alveo U280, as a deterministic cycle model."""

    name = "DCART"

    def __init__(
        self,
        platform: Platform = FPGA_PLATFORM,
        config: Optional[DCARTConfig] = None,
        injector=None,
        durability=None,
        telemetry=None,
    ):
        super().__init__(platform)
        self.config = config if config is not None else DCARTConfig()
        #: Optional :class:`~repro.faults.FaultInjector` (chaos harness);
        #: ``None`` models the perfect machine.
        self.injector = injector
        #: Optional :class:`~repro.obs.Telemetry`: a MetricsRegistry the
        #: hardware units report into at end of run, and optionally a
        #: BatchTracer recording one span sample per batch.  ``None`` (the
        #: default) costs one pointer test per batch; results are
        #: bit-identical either way because ``result.extra`` is always
        #: derived through a registry.
        self.telemetry = telemetry
        #: Optional :class:`~repro.durability.DurabilityManager`: when
        #: set, every combined batch is WAL-logged *before* SOU dispatch
        #: (write-ahead), the tree + accelerator state checkpoint every N
        #: batches, and the log/fsync/checkpoint traffic is billed into
        #: the batch cycles.  ``None`` models the volatile machine.
        self.durability = durability

    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        tree: Optional[AdaptiveRadixTree] = None,
        records=None,  # ignored: DCART's execution takes different paths
    ) -> RunResult:
        config = self.config
        costs = config.costs
        if tree is None:
            tree = self.build_tree(workload)
        result = self._new_result(workload)

        injector = self.injector
        if injector is not None:
            injector.reset()
        session = self.open_session(workload, tree)
        telemetry = self.telemetry
        tracer = session.tracer
        durability = self.durability

        pcu_cycles: List[int] = []
        sou_cycles: List[int] = []
        # Each batch's bucket outcomes are folded as soon as it returns,
        # so the run holds one op-id and one completion array per batch
        # rather than every bucket's per-op lists.
        id_chunks: List[IdArray] = []
        cycle_chunks: List[np.ndarray] = []
        matches = visited = fetched = used = 0
        counts = result.node_access_counts

        stream = workload.operations
        for batch_index, ids in enumerate(stream.batches(config.batch_size)):
            execution = session.execute_batch(stream, ids, batch_index)
            pcu_cycles.append(execution.pcu_cycles)
            sou_cycles.append(execution.service_cycles)
            batch_completions: List[int] = []
            for outcome in execution.outcomes:
                matches += outcome.partial_key_matches
                visited += outcome.nodes_visited
                fetched += outcome.bytes_fetched
                used += outcome.bytes_used
                # One counting pass over the raw visit list per bucket;
                # the distinct-node set falls out as the Counter's keys.
                counts.update(outcome.visited_ids)
                batch_completions += outcome.completion_cycles
            id_chunks.extend(outcome.op_ids for outcome in execution.outcomes)
            cycle_chunks.append(np.array(batch_completions, dtype=np.int64))

        contentions = session.contentions
        global_sync_ops = session.global_sync_ops
        sync_cycles_total = session.sync_cycles_total
        offchip_lines_total = session.offchip_lines_total
        redispatch_cycles_total = session.redispatch_cycles_total
        durability_cycles_total = session.durability_cycles_total
        tree_buffer = session.tree_buffer
        dispatcher = session.dispatcher
        extractor = session.extractor

        timeline = overlap_timeline(pcu_cycles, sou_cycles, config.enable_overlap)
        elapsed = timeline.total_cycles * costs.cycle_seconds
        if tracer is not None:
            tracer.finalize(
                timeline,
                clock_hz=costs.clock_hz,
                overlap=config.enable_overlap,
                has_durability=durability is not None,
            )

        # Latency of an op = waiting for its batch's SOUs to start, plus
        # its completion offset within its SOU's queue.  With the
        # overlap, batch i's SOUs start ``starts[i] - starts[i-1]``
        # cycles after batch i begins combining (at starts[i-1], in the
        # shadow of batch i-1's SOU work) — that difference is
        # ``max(prev batch cycles, own combine)``, i.e. queueing behind
        # earlier batches, which ``pcu_cycles[i]`` alone missed.
        # Serially, combining starts only when the previous batch fully
        # drains, so the wait is just the batch's own combine time.
        if config.enable_overlap and timeline.batch_start_cycles:
            starts = timeline.batch_start_cycles
            batch_waits = [starts[0]]
            for i in range(1, len(starts)):
                batch_waits.append(starts[i] - starts[i - 1])
        else:
            batch_waits = list(pcu_cycles)
        result.partial_key_matches = matches
        result.nodes_visited = visited
        result.distinct_nodes_visited = len(counts)
        result.bytes_fetched = fetched
        result.bytes_used = used
        if id_chunks:
            # op_ids are unique across the run, so a stable argsort on
            # them reproduces exactly the old (op_id, latency) tuple
            # sort; cycle counts stay integers until the final float
            # multiply, which matches the scalar path bit-for-bit.
            op_ids = np.concatenate(id_chunks)
            completion = np.concatenate([
                chunk + wait for chunk, wait in zip(cycle_chunks, batch_waits)
            ])
            order = np.argsort(op_ids, kind="stable")
            result.latencies_ns = (
                completion[order] * costs.cycle_seconds
            ) * 1e9
        else:
            result.latencies_ns = np.zeros(0)
        result.cache_hit_rate = tree_buffer.hit_rate
        result.elapsed_seconds = elapsed
        result.lock_contentions = contentions
        result.lock_acquisitions = global_sync_ops
        result.energy_joules = self.platform.energy_joules(elapsed)

        sync_seconds = sync_cycles_total * costs.cycle_seconds
        unhidden_pcu = (
            timeline.pcu_total_cycles - timeline.hidden_cycles
        ) * costs.cycle_seconds
        result.breakdown = TimeBreakdown(
            traverse_seconds=max(0.0, elapsed - sync_seconds - unhidden_pcu),
            sync_seconds=min(sync_seconds, elapsed),
            other_seconds=min(unhidden_pcu, max(0.0, elapsed - sync_seconds)),
        )
        # Every unit reports into a registry — the attached one when
        # telemetry is on, a throwaway otherwise, so the derived
        # ``result.extra`` view is bit-identical in both cases.
        registry = (
            telemetry.registry if telemetry is not None else MetricsRegistry()
        )
        session.report_metrics(registry)
        registry.gauge("run.prefix_byte_offset", extractor.byte_offset)
        registry.counter("run.batches", len(sou_cycles))
        registry.counter("run.total_cycles", timeline.total_cycles)
        registry.counter("run.hidden_pcu_cycles", timeline.hidden_cycles)
        registry.gauge("run.overlap_efficiency", timeline.overlap_efficiency)
        registry.counter("run.contentions", contentions)
        registry.counter("hbm.offchip_lines", offchip_lines_total)
        registry.counter("sync.global_ops", global_sync_ops)
        registry.counter("sync.cycles", sync_cycles_total)
        registry.counter("dispatcher.redispatch_cycles", redispatch_cycles_total)
        if durability is not None:
            durability.report_metrics(registry)
            registry.counter("durability.cycles", durability_cycles_total)

        result.extra.update(extra_view(registry))
        if injector is not None:
            result.extra.update(injector.snapshot())
            result.extra["failover_buckets"] = dispatcher.failovers
            result.extra["redispatch_cycles"] = redispatch_cycles_total
        if durability is not None:
            result.extra.update(durability.snapshot())
            result.extra["durability_cycles"] = durability_cycles_total
            durability.close()
        return result

    # ------------------------------------------------------------------

    def open_session(
        self, workload: Workload, tree: AdaptiveRadixTree
    ) -> AcceleratorSession:
        """Fresh per-batch execution state over ``tree``.

        The serving simulator's entry point: it feeds the session
        arrival-formed batches instead of fixed ``batch_size`` slices.
        The caller must reset the injector (if any) before the first
        batch of a run.
        """
        return AcceleratorSession(self, workload, tree)

    def _make_extractor(self, workload: Workload) -> PrefixExtractor:
        if self.config.prefix_byte_offset is not None:
            return PrefixExtractor(
                self.config.prefix_byte_offset, self.config.n_buckets
            )
        sample = workload.loaded_keys[:CALIBRATION_SAMPLE]
        return PrefixExtractor.calibrate(sample, self.config.n_buckets)
