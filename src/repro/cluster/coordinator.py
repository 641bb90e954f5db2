"""The cluster coordinator: N DCART shards behind one router.

Scale-out story: one DCART instance is a fixed 16-SOU part; past its
roofline the only way up is *data-centric scale-out* — hash- or
range-partition the key space across N simulated instances, each a full
:class:`~repro.core.accelerator.AcceleratorSession` with its own tree,
Shortcut_Table, and Tree_buffer.  The coordinator owns everything the
paper's single-box model has no word for:

* **routing** — key → virtual bucket → shard
  (:class:`~repro.cluster.partition.Partitioner`), billed per op;
* **replication** — each primary ships its CRC-framed WAL group per
  batch to a lagging replica (:class:`~repro.cluster.replication.
  ReplicaShard`); acknowledged shipment is the commit point;
* **failure detection** — a cycle-driven heartbeat
  (:class:`~repro.cluster.heartbeat.FailureDetector`) sampled at batch
  boundaries, with the suspect → dead miss budget of
  :class:`~repro.model.costs.ClusterCosts`;
* **failover** — promote the replica, replay the shipped-but-unapplied
  WAL tail, then drain the hinted-handoff queue of every op routed to
  the shard while it was dark.  Committed batches (shipped before the
  death) are never lost; the in-flight batch is re-executed from the
  handoff queue, not dropped;
* **rebalancing** — the :class:`~repro.cluster.rebalancer.
  SkewRebalancer` migrates hot buckets off overloaded shards; key
  movement is billed per key and the affected sessions reopen cold.

Time: the coordinator keeps a *busy-cycle* clock — the sum of per-batch
makespans (serial routing + the slowest shard's sub-batch + any
failover/rebalance administration).  Replica lag and heartbeat misses
are measured on this clock, so a cluster run is a pure function of
``(workload, config, schedule, seed)`` and reproduces bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.art.tree import AdaptiveRadixTree
from repro.art.validate import validate_tree
from repro.cluster.partition import DEFAULT_BUCKETS, PARTITION_NAMES, Partitioner
from repro.cluster.heartbeat import FailureDetector, ShardState
from repro.cluster.rebalancer import SkewRebalancer, shard_busy_cycles
from repro.cluster.replication import ReplicaShard
from repro.core.accelerator import AcceleratorSession, DcartAccelerator
from repro.core.config import DCARTConfig
from repro.durability.wal import encode_batch_frames, loggable_ops
from repro.errors import ConfigError, FaultError, SimulationError
from repro.faults import FaultSchedule
from repro.model.costs import DEFAULT_CLUSTER_COSTS, ClusterCosts
from repro.workloads.ops import IdArray, OperationStream, Workload

#: JSON report schema identifier for ``repro cluster`` (asserted by CI).
CLUSTER_SCHEMA = "cluster-run/v1"


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and policy knobs of one simulated cluster."""

    n_shards: int = 4
    #: Replicas per shard: 0 (no fault tolerance — a fail-stop is fatal)
    #: or 1 (a primary/replica pair).
    replicas: int = 1
    partitioning: str = "hash"
    n_buckets: int = DEFAULT_BUCKETS
    #: Enable the skew-driven bucket rebalancer.
    rebalance: bool = False
    #: Batches between rebalance rounds.
    rebalance_every: int = 8
    rebalance_threshold: float = 1.5
    rebalance_max_moves: int = 8
    costs: ClusterCosts = field(default_factory=lambda: DEFAULT_CLUSTER_COSTS)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ConfigError(f"n_shards must be positive: {self.n_shards}")
        if self.replicas not in (0, 1):
            raise ConfigError(
                f"replicas must be 0 or 1: {self.replicas}"
            )
        if self.partitioning not in PARTITION_NAMES:
            raise ConfigError(
                f"unknown partitioning {self.partitioning!r}; expected one "
                f"of {PARTITION_NAMES}"
            )
        if self.n_buckets < self.n_shards:
            raise ConfigError(
                f"n_buckets ({self.n_buckets}) must be >= n_shards "
                f"({self.n_shards})"
            )
        if self.rebalance_every <= 0:
            raise ConfigError(
                f"rebalance_every must be positive: {self.rebalance_every}"
            )
        # threshold/max_moves are validated by SkewRebalancer at build.


@dataclass
class FailoverRecord:
    """One completed shard failover, for the report and RTO math."""

    shard_id: int
    died_cycle: int
    died_batch: int
    detected_cycle: int
    recovered_cycle: int
    catchup_ops: int
    handoff_ops: int

    @property
    def rto_cycles(self) -> int:
        return self.recovered_cycle - self.died_cycle

    def to_dict(self) -> Dict[str, int]:
        return {
            "shard_id": self.shard_id,
            "died_cycle": self.died_cycle,
            "died_batch": self.died_batch,
            "detected_cycle": self.detected_cycle,
            "recovered_cycle": self.recovered_cycle,
            "rto_cycles": self.rto_cycles,
            "catchup_ops": self.catchup_ops,
            "handoff_ops": self.handoff_ops,
        }


@dataclass
class ClusterBatchResult:
    """One cluster batch: cycle bill plus per-op completions.

    ``completions`` are ``(op_id, offset)`` pairs with offsets measured
    from the batch's start on the cluster clock; ops drained from the
    hinted-handoff queue complete in the batch whose failover freed
    them, not the batch that admitted them.
    """

    batch_index: int
    route_cycles: int
    shard_cycles: int
    admin_cycles: int
    completions: List[Tuple[int, int]]
    deferred_ops: int

    @property
    def makespan_cycles(self) -> int:
        return self.route_cycles + self.shard_cycles + self.admin_cycles


class _Shard:
    """One shard's primary (plus optional replica) and its counters."""

    def __init__(
        self,
        shard_id: int,
        keys: List[bytes],
        base: Workload,
        accel_config: DCARTConfig,
        cluster: ClusterConfig,
        clock_hz: float,
    ):
        self.shard_id = shard_id
        self.keys = keys
        self._base = base
        self._accel_config = accel_config
        self._cluster = cluster
        self.alive = True
        self.failed_over = False
        self.replica: Optional[ReplicaShard] = None
        self.ops_executed = 0
        self.batches_executed = 0
        self.busy_snapshot = 0
        build_tree = self._tree_builder()
        self.session = self._open_session(build_tree())
        if cluster.replicas:
            # The replica builds its own copy the first time it is read.
            self.replica = ReplicaShard(
                shard_id,
                build_tree,
                cluster.costs,
                clock_hz,
                cluster.seed,
            )

    # -- construction ---------------------------------------------------

    def _config(self) -> DCARTConfig:
        if self.keys or self._accel_config.prefix_byte_offset is not None:
            return self._accel_config
        # An empty shard has nothing to calibrate the prefix extractor
        # on; pin the offset so the session still opens (any inserts it
        # receives dispatch off byte 0 until a rebalance repopulates it).
        return dataclasses.replace(self._accel_config, prefix_byte_offset=0)

    def workload(self) -> Workload:
        return Workload(
            name=f"{self._base.name}/shard{self.shard_id}",
            key_family=self._base.key_family,
            loaded_keys=self.keys,
            operations=OperationStream([]),
            seed=self._base.seed,
        )

    def _tree_builder(self) -> Callable[[], AdaptiveRadixTree]:
        """A call that bulk-loads the shard's keys as they are now.

        It keeps this moment's keys and config however late it runs: a
        replica makes its tree on its first read, and a migration
        rebinds ``keys``.
        """
        config, workload = self._config(), self.workload()
        return lambda: DcartAccelerator(config=config).build_tree(workload)

    def _open_session(self, tree: AdaptiveRadixTree) -> AcceleratorSession:
        accelerator = DcartAccelerator(config=self._config())
        return accelerator.open_session(self.workload(), tree)

    # -- lifecycle ------------------------------------------------------

    @property
    def tree(self) -> AdaptiveRadixTree:
        return self.session.tree

    def fail_stop(self) -> None:
        if not self.alive:
            raise FaultError(
                f"shard {self.shard_id} fail-stopped while already down"
            )
        if self.replica is None:
            raise FaultError(
                f"shard {self.shard_id} fail-stopped with no replica: "
                "its committed data is unrecoverable"
            )
        self.alive = False

    def promote(self) -> int:
        """Promote the replica to primary; returns catch-up op count."""
        replica = self.replica
        if replica is None:
            raise FaultError(
                f"no replica to promote on shard {self.shard_id}"
            )
        replayed = replica.catch_up()
        self.session = self._open_session(replica.tree)
        self.replica = None
        self.alive = True
        self.failed_over = True
        self.busy_snapshot = 0
        return replayed

    def reopen(self) -> None:
        """Fresh session over the current tree (post-migration).

        Honest migration accounting: the reopened session recalibrates
        its prefix extractor from the shard's new key population and
        starts with cold Shortcut_Table and Tree_buffer state.
        """
        self.session = self._open_session(self.session.tree)
        self.busy_snapshot = 0

    def window_busy(self) -> int:
        """SOU occupancy since the last harvest (rebalancer signal)."""
        total = shard_busy_cycles(self.session.sous)
        window = total - self.busy_snapshot
        self.busy_snapshot = total
        return window


class ClusterCoordinator:
    """Routes, replicates, detects, fails over, rebalances."""

    def __init__(
        self,
        workload: Workload,
        cluster: Optional[ClusterConfig] = None,
        accel_config: Optional[DCARTConfig] = None,
        schedule: Optional[FaultSchedule] = None,
    ):
        self.workload = workload
        self.cluster = cluster if cluster is not None else ClusterConfig()
        self.accel_config = (
            accel_config if accel_config is not None else DCARTConfig()
        )
        self.schedule = schedule
        if schedule is not None:
            schedule.check_run(
                self.accel_config.n_sous,
                self.cluster.n_shards,
                self.cluster.replicas,
            )
        self.costs = self.cluster.costs
        self.clock_hz = self.accel_config.costs.clock_hz
        self.partitioner = Partitioner(
            self.cluster.n_shards,
            self.cluster.partitioning,
            self.cluster.n_buckets,
        )
        self.rebalancer = (
            SkewRebalancer(
                self.partitioner,
                self.costs,
                threshold=self.cluster.rebalance_threshold,
                max_moves=self.cluster.rebalance_max_moves,
            )
            if self.cluster.rebalance
            else None
        )
        self.detector = FailureDetector(self.cluster.n_shards, self.costs)
        per_shard_keys = self.partitioner.split_keys(workload.loaded_keys)
        self.shards = [
            _Shard(
                shard_id,
                per_shard_keys[shard_id],
                workload,
                self.accel_config,
                self.cluster,
                self.clock_hz,
            )
            for shard_id in range(self.cluster.n_shards)
        ]
        self.clock = 0
        self.route_cycles_total = 0
        self.shard_cycles_total = 0
        self.admin_cycles_total = 0
        self.migration_cycles_total = 0
        self.keys_migrated = 0
        self.quiesce_ops_total = 0
        self.failovers: List[FailoverRecord] = []
        self.deferred_ops_peak = 0
        #: Hinted handoff: ids of ops routed to a dark shard, drained at
        #: its failover.  shard_id -> op ids in admission order.
        self._handoff: Dict[int, List[int]] = {}
        #: Fail-stop cycles/batches for RTO math, keyed by shard.
        self._death_marks: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # one batch
    # ------------------------------------------------------------------

    def execute_batch(
        self, ids: IdArray, batch_index: int
    ) -> ClusterBatchResult:
        """Route, execute, replicate, and supervise the cluster batch of
        the ops ``ids`` of the workload's stream."""
        costs = self.costs
        batch_start = self.clock
        completions: List[Tuple[int, int]] = []

        # 1. Scheduled cluster faults land at the batch boundary.
        if self.schedule is not None:
            for event in self.schedule.shard_events_at(batch_index):
                shard = self.shards[event.shard_id]
                shard.fail_stop()
                self.detector.silence(event.shard_id)
                self._death_marks[event.shard_id] = (self.clock, batch_index)

        # 2. Route: key -> bucket -> shard, billed across the router's
        #    parallel lanes.  The batch's keys are gathered once.
        route_cycles = costs.route_batch_cycles(len(ids))
        by_shard: Dict[int, List[int]] = {}
        keys = self.workload.operations.keys[ids].tolist()
        for op_id, key in zip(ids.tolist(), keys):
            bucket = self.partitioner.bucket_of(key)
            if self.rebalancer is not None:
                self.rebalancer.record_route(bucket)
            shard_id = self.partitioner.bucket_map[bucket]
            by_shard.setdefault(shard_id, []).append(op_id)

        # 3. Execute sub-batches on live shards; defer ops aimed at dark
        #    ones (hinted handoff).  Shards run in parallel: the batch's
        #    shard phase costs the slowest sub-batch.
        shard_cycles = 0
        deferred = 0
        for shard_id in range(self.cluster.n_shards):
            sub = by_shard.get(shard_id)
            if not sub:
                continue
            shard = self.shards[shard_id]
            if not shard.alive:
                self._handoff.setdefault(shard_id, []).extend(sub)
                deferred += len(sub)
                continue
            sub_cycles = self._execute_on(
                shard, np.array(sub, dtype=np.int64), batch_index,
                route_cycles, completions,
            )
            shard_cycles = max(shard_cycles, sub_cycles)
        pending = sum(len(q) for q in self._handoff.values())
        self.deferred_ops_peak = max(self.deferred_ops_peak, pending)

        # 4. Advance the cluster clock past the batch, then let shipped
        #    replication groups whose delay has elapsed apply.
        self.clock += route_cycles + shard_cycles
        for shard in self.shards:
            if shard.replica is not None:
                shard.replica.advance(self.clock)

        # 5. Heartbeat sampling; a DEAD verdict triggers failover, which
        #    also drains that shard's handoff queue.
        admin_cycles = 0
        for shard_id, state in self.detector.observe(self.clock):
            if state is ShardState.DEAD:
                admin_cycles += self._failover(
                    shard_id, batch_index, batch_start, completions
                )

        # 6. Periodic skew check.
        if (
            self.rebalancer is not None
            and (batch_index + 1) % self.cluster.rebalance_every == 0
        ):
            admin_cycles += self._rebalance()

        self.route_cycles_total += route_cycles
        self.shard_cycles_total += shard_cycles
        self.admin_cycles_total += admin_cycles
        return ClusterBatchResult(
            batch_index=batch_index,
            route_cycles=route_cycles,
            shard_cycles=shard_cycles,
            admin_cycles=admin_cycles,
            completions=completions,
            deferred_ops=deferred,
        )

    def _execute_on(
        self,
        shard: _Shard,
        sub: IdArray,
        batch_index: int,
        base_offset: int,
        completions: List[Tuple[int, int]],
    ) -> int:
        """Execute the ops ``sub`` on a live shard; ship its WAL group;
        returns the sub-batch's cycles.  Completion offsets are relative
        to the cluster batch start (``base_offset`` = cycles already
        serial before the shard phase)."""
        stream = self.workload.operations
        execution = shard.session.execute_batch(stream, sub, batch_index)
        completions.extend(
            execution.completions(base_offset + execution.pcu_cycles)
        )
        shard.ops_executed += len(sub)
        shard.batches_executed += 1
        if shard.replica is not None:
            slowdown = (
                self.schedule.replication_factor(batch_index, shard.shard_id)
                if self.schedule is not None
                else 1.0
            )
            mutating = loggable_ops(stream, sub)
            shard.replica.ship(  # reprolint: disable=CYC02 -- ready cycle is tracked in the replica inbox; the return is informational
                batch_index,
                encode_batch_frames(batch_index, stream, mutating),
                len(mutating),
                self.clock,
                slowdown,
            )
        return execution.pcu_cycles + execution.service_cycles

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def _failover(
        self,
        shard_id: int,
        batch_index: int,
        batch_start: int,
        completions: List[Tuple[int, int]],
    ) -> int:
        """Promote, catch up, drain handoff; returns the admin cycles."""
        costs = self.costs
        shard = self.shards[shard_id]
        detected = self.detector.death_detected_at[shard_id]
        died_cycle, died_batch = self._death_marks.pop(shard_id)

        admin = costs.promotion_cycles
        catchup_ops = shard.promote()
        admin += catchup_ops * costs.catchup_replay_cycles_per_op

        handoff = self._handoff.pop(shard_id, [])
        if handoff:
            admin += len(handoff) * costs.handoff_cycles_per_op
            self.clock += admin
            admin_before_replay = admin
            replay = shard.session.execute_batch(
                self.workload.operations,
                np.array(handoff, dtype=np.int64),
                batch_index,
            )
            completions.extend(replay.completions(
                self.clock - batch_start + replay.pcu_cycles
            ))
            shard.ops_executed += len(handoff)
            shard.batches_executed += 1
            replay_cycles = replay.pcu_cycles + replay.service_cycles
            self.clock += replay_cycles
            admin = admin_before_replay + replay_cycles
        else:
            self.clock += admin
        self.detector.revive(shard_id, self.clock)
        self.failovers.append(
            FailoverRecord(
                shard_id=shard_id,
                died_cycle=died_cycle,
                died_batch=died_batch,
                detected_cycle=detected,
                recovered_cycle=self.clock,
                catchup_ops=catchup_ops,
                handoff_ops=len(handoff),
            )
        )
        return admin

    def drain(self, batch_index: int) -> ClusterBatchResult:
        """Idle the cluster until every pending failover completes.

        With no traffic the clock only advances by heartbeat cadence;
        this spins it forward so a shard that died near the end of the
        stream is still detected, promoted, and its handoff queue
        drained.  Completion offsets are relative to the drain start.
        """
        start = self.clock
        completions: List[Tuple[int, int]] = []
        admin = 0
        rounds = 0
        while any(not shard.alive for shard in self.shards):
            rounds += 1
            if rounds > 4 * self.costs.dead_after_misses:
                raise SimulationError(
                    "failure detector never converged while draining"
                )
            self.clock += self.costs.heartbeat_interval_cycles
            admin += self.costs.heartbeat_interval_cycles
            for shard_id, state in self.detector.observe(self.clock):
                if state is ShardState.DEAD:
                    admin += self._failover(
                        shard_id, batch_index, start, completions
                    )
        self.admin_cycles_total += admin
        return ClusterBatchResult(
            batch_index=batch_index,
            route_cycles=0,
            shard_cycles=0,
            admin_cycles=admin,
            completions=completions,
            deferred_ops=0,
        )

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def _rebalance(self) -> int:
        """One skew-check round; returns its admin cycles."""
        costs = self.costs
        assert self.rebalancer is not None
        admin = costs.rebalance_check_cycles
        self.clock += costs.rebalance_check_cycles
        if any(not shard.alive for shard in self.shards):
            # A dark shard cannot be quiesced; skip the round (the heat
            # window restarts so stale traffic doesn't drive a later
            # round).
            self.rebalancer.plan([0] * self.cluster.n_shards)
            return admin
        loads = [shard.window_busy() for shard in self.shards]
        moves = self.rebalancer.plan(loads)
        if not moves:
            return admin
        touched = set()
        moved_keys = 0
        for move in moves:
            keys, replayed = self._migrate_bucket(
                move.bucket, move.source, move.target
            )
            moved_keys += keys
            self.quiesce_ops_total += replayed
            touched.add(move.source)
            touched.add(move.target)
        # The quiesce replay happens on the replicas' side of the link
        # and overlaps the route-table swap, so it is tracked (see the
        # report) but not serialised into the coordinator makespan; key
        # movement itself is always on the critical path.
        migration_cycles = moved_keys * costs.migration_cycles_per_key
        for shard_id in sorted(touched):
            self.shards[shard_id].reopen()
        self.clock += migration_cycles
        self.migration_cycles_total += migration_cycles
        self.keys_migrated += moved_keys
        return admin + migration_cycles

    def _migrate_bucket(
        self, bucket: int, source: int, target: int
    ) -> Tuple[int, int]:
        """Move one bucket's live keys (and replica copies).

        Returns ``(keys moved, replication ops replayed)``: replication
        to both shards is quiesced first — a replica that trails its
        primary across a migration would fork history.  The replay runs
        replica-side, concurrent with the route-table swap, so it is
        counted in the report but kept off the coordinator clock.
        """
        src, dst = self.shards[source], self.shards[target]
        quiesce_ops = 0
        for shard in (src, dst):
            if shard.replica is not None:
                quiesce_ops += shard.replica.catch_up()
        part = self.partitioner
        moved = [
            (key, value)
            for key, value in src.tree.items()
            if part.bucket_of(key) == bucket
        ]
        for key, value in moved:
            src.tree.delete(key)
            dst.tree.upsert(key, value)
            if src.replica is not None:
                src.replica.tree.delete(key)
            if dst.replica is not None:
                dst.replica.tree.upsert(key, value)
        moved_set = {key for key, _ in moved}
        src.keys = [key for key in src.keys if key not in moved_set]
        dst.keys = dst.keys + [key for key, _ in moved]
        part.move_bucket(bucket, target)
        return len(moved), quiesce_ops

    # ------------------------------------------------------------------
    # whole-run driver and report
    # ------------------------------------------------------------------

    def run(self, batch_size: Optional[int] = None) -> Dict[str, object]:
        """Drain the workload closed-loop; emit ``cluster-run/v1``."""
        size = batch_size if batch_size is not None else (
            self.accel_config.batch_size
        )
        completed = 0
        n_batches = 0
        deferred = 0
        for batch_index, ids in enumerate(
            self.workload.operations.batches(size)
        ):
            result = self.execute_batch(ids, batch_index)
            completed += len(result.completions)
            deferred += result.deferred_ops
            n_batches += 1
        tail = self.drain(n_batches)
        completed += len(tail.completions)
        return self.report(completed=completed, n_batches=n_batches)

    def close(self) -> None:
        """Release per-shard sessions (parity with serve backends)."""
        # Sessions hold no external resources (no durability manager in
        # cluster mode); nothing to tear down yet.

    def validate_trees(self) -> None:
        """ART invariant validation over every primary tree."""
        for shard in self.shards:
            validate_tree(shard.tree).raise_if_failed()

    def check_replicas(self) -> None:
        """Catch every surviving replica up and hold it to its primary.

        Each replica's tree must pass ART validation and map exactly
        the keys and values of its primary's; raises
        :class:`~repro.errors.TreeError` or :class:`SimulationError`
        otherwise.  The catch-up drains the inboxes :meth:`report`
        reads the lag from, so check after the report is built.
        """
        for shard in self.shards:
            replica = shard.replica
            if replica is None:
                continue
            replica.catch_up()
            tree = replica.tree
            validate_tree(tree).raise_if_failed()
            if dict(tree.items()) != dict(shard.tree.items()):
                raise SimulationError(
                    f"the replica of shard {shard.shard_id} does not "
                    "match its primary"
                )

    def report(
        self, completed: int, n_batches: int
    ) -> Dict[str, object]:
        makespan = self.clock
        seconds = makespan / self.clock_hz if makespan else 0.0
        throughput_mops = (
            completed / seconds / 1e6 if seconds > 0 else 0.0
        )
        replica_stats = {
            "ops_shipped": 0,
            "ops_applied": 0,
            "bytes_shipped": 0,
            "max_lag_batches": 0,
        }
        for shard in self.shards:
            replica = shard.replica
            if replica is None:
                continue
            replica_stats["ops_shipped"] += replica.ops_shipped
            replica_stats["ops_applied"] += replica.ops_applied
            replica_stats["bytes_shipped"] += replica.bytes_shipped
            replica_stats["max_lag_batches"] = max(
                replica_stats["max_lag_batches"], replica.lag_batches()
            )
        report: Dict[str, object] = {
            "schema": CLUSTER_SCHEMA,
            "workload": self.workload.name,
            "n_shards": self.cluster.n_shards,
            "replicas": self.cluster.replicas,
            "partitioning": self.cluster.partitioning,
            "n_buckets": self.cluster.n_buckets,
            "rebalance": self.cluster.rebalance,
            "seed": self.cluster.seed,
            "n_ops": self.workload.n_ops,
            "completed_ops": completed,
            "n_batches": n_batches,
            "makespan_cycles": makespan,
            "throughput_mops": throughput_mops,
            "route_cycles": self.route_cycles_total,
            "shard_cycles": self.shard_cycles_total,
            "admin_cycles": self.admin_cycles_total,
            "migration": {
                "keys_moved": self.keys_migrated,
                "cycles": self.migration_cycles_total,
                "quiesce_ops": self.quiesce_ops_total,
                "bucket_moves": self.partitioner.migrations,
                "rounds": (
                    self.rebalancer.rounds
                    if self.rebalancer is not None
                    else 0
                ),
            },
            "replication": replica_stats,
            "failovers": [record.to_dict() for record in self.failovers],
            "deferred_ops_peak": self.deferred_ops_peak,
            "suspicions": self.detector.suspicions,
            "per_shard": [
                {
                    "shard_id": shard.shard_id,
                    "keys": len(shard.keys),
                    "ops": shard.ops_executed,
                    "batches": shard.batches_executed,
                    "alive": shard.alive,
                    "failed_over": shard.failed_over,
                }
                for shard in self.shards
            ],
            "faults": (
                self.schedule.signature()
                if self.schedule is not None
                else None
            ),
        }
        return report
