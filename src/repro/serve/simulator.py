"""The open-loop serving event loop and the offered-load sweep.

:class:`ServingSimulator` drives one serving run: a seeded arrival
process stamps every workload op with an arrival cycle at a chosen
offered load (a fraction of the engine's calibrated closed-loop
capacity), an admission policy sheds or enqueues each op against the
live queue depth, the size-or-deadline :class:`~repro.serve.batcher.
BatchFormer` closes batches, and each batch executes on the engine
backend — a real :class:`~repro.core.accelerator.AcceleratorSession`
for DCART (so chaos events, durability, and crash+recover all fire
mid-traffic exactly as closed-loop), or a calibrated service-rate
stand-in for the CPU/GPU baselines.  Every completed op's latency is
``completion - arrival`` cycles: queueing + batch forming + service.

:func:`load_sweep` runs the simulator across offered loads, derives the
SLO when not pinned (``SLO_FACTOR`` x the lowest load's p99), finds the
knee (the highest load whose p99 still meets the SLO), computes the
recovery-time objective for faulted runs, and emits the
``serve-sweep/v1`` JSON report behind ``repro serve``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.accelerator import DcartAccelerator
from repro.core.config import DCARTConfig
from repro.durability import DurabilityManager, recover
from repro.errors import ConfigError, SimulatedCrash, SimulationError
from repro.faults import FaultInjector, FaultSchedule
from repro.faults.schedule import first_batch
from repro.serve.admission import AdmissionPolicy, make_admission
from repro.serve.arrivals import make_arrivals
from repro.serve.batcher import BatchFormer, FormedBatch
from repro.serve.slo import SloTracker, rto_cycles
from repro.workloads.ops import IdArray, Workload

#: JSON report schema identifier (asserted by CI's serve-smoke job).
SERVE_SCHEMA = "serve-sweep/v1"

#: Derived SLO when none is pinned: this multiple of the lowest offered
#: load's p99 (the "healthy tail" the service commits to staying near).
SLO_FACTOR = 5.0

#: Simulation clock for engines billed in nanoseconds (CPU/GPU): one
#: "cycle" is one nanosecond.
NS_CLOCK_HZ = 1e9


@dataclass
class ServeConfig:
    """Knobs of one serving setup (shared across a load sweep)."""

    arrival: str = "poisson"
    admission: str = "drop-tail"
    #: Bound on ops queued ahead of the server (pending in the batch
    #: former plus formed-but-unstarted); the unit every policy sheds
    #: against.  Ignored by ``admission="none"``.
    queue_capacity: int = 8192
    #: Serving batch size — small relative to the closed-loop 32 Ki so
    #: the size-or-deadline trade-off is live at sane op counts.
    batch_size: int = 512
    #: Batch deadline: a batch closes this long after its first op.
    deadline_us: float = 100.0
    #: Latency SLO; ``None`` derives it from the lowest swept load.
    slo_us: Optional[float] = None
    #: Completions per sliding window of the RTO's windowed p99.
    rto_window_ops: int = 64
    burst_factor: float = 4.0
    watermark: float = 0.5
    checkpoint_every: int = 4

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0:
            raise ConfigError(
                f"queue_capacity must be positive: {self.queue_capacity}"
            )
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive: {self.batch_size}")
        if self.deadline_us <= 0:
            raise ConfigError(f"deadline_us must be positive: {self.deadline_us}")
        if self.slo_us is not None and self.slo_us <= 0:
            raise ConfigError(f"slo_us must be positive: {self.slo_us}")
        if self.rto_window_ops <= 0:
            raise ConfigError(
                f"rto_window_ops must be positive: {self.rto_window_ops}"
            )
        # Checked here, not just when the bursty process is built: a
        # sweep config carrying a nonsense burst factor should fail at
        # construction, before any calibration run burns cycles.
        if self.burst_factor <= 1.0:
            raise ConfigError(
                f"burst_factor must exceed 1: {self.burst_factor}"
            )
        if not 0.0 < self.watermark <= 1.0:
            raise ConfigError(
                f"watermark must be in (0, 1]: {self.watermark}"
            )
        if self.checkpoint_every <= 0:
            raise ConfigError(
                f"checkpoint_every must be positive: {self.checkpoint_every}"
            )


@dataclass
class ServeResult:
    """One serving run at one offered load."""

    engine: str
    workload: str
    seed: int
    offered_load: float
    rate_ops_per_s: float
    offered_ops: int
    admitted_ops: int
    shed_ops: int
    #: Ops admitted but destroyed by a crash before completing.
    lost_ops: int
    completed_ops: int
    n_batches: int
    deadline_batches: int
    queue_peak: int
    p50_us: float
    p99_us: float
    p999_us: float
    goodput_mops: float
    crashes: int
    downtime_cycles: int
    #: Start cycle of every batch a scheduled fault event landed on (a
    #: window lands on its first batch).
    fault_cycles: List[int] = field(default_factory=list)
    #: Recovery-time objective after the first fault; filled by
    #: :func:`load_sweep` once the SLO is known.  ``None`` = no fault,
    #: or the tail never re-entered SLO.
    rto_cycles: Optional[int] = None
    tracker: SloTracker = field(default_factory=SloTracker, repr=False)

    @property
    def shed_rate(self) -> float:
        if self.offered_ops == 0:
            return 0.0
        return self.shed_ops / self.offered_ops

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "workload": self.workload,
            "seed": self.seed,
            "offered_load": self.offered_load,
            "rate_ops_per_s": self.rate_ops_per_s,
            "offered_ops": self.offered_ops,
            "admitted_ops": self.admitted_ops,
            "shed_ops": self.shed_ops,
            "lost_ops": self.lost_ops,
            "completed_ops": self.completed_ops,
            "n_batches": self.n_batches,
            "deadline_batches": self.deadline_batches,
            "queue_peak": self.queue_peak,
            "shed_rate": self.shed_rate,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "goodput_mops": self.goodput_mops,
            "crashes": self.crashes,
            "downtime_cycles": self.downtime_cycles,
            "fault_cycles": list(self.fault_cycles),
            "rto_cycles": self.rto_cycles,
        }


# ---------------------------------------------------------------------------
# engine backends
# ---------------------------------------------------------------------------


class _DcartBackend:
    """Serve through a live :class:`AcceleratorSession` (the real model)."""

    def __init__(
        self,
        accelerator: DcartAccelerator,
        workload: Workload,
        tree,
    ):
        self.accelerator = accelerator
        self.workload = workload
        if accelerator.injector is not None:
            accelerator.injector.reset()
        self.session = accelerator.open_session(workload, tree)

    def execute(
        self, ids: IdArray, batch_index: int
    ) -> Tuple[int, int, List[Tuple[int, int]]]:
        """(pcu_cycles, service_cycles, [(op_id, completion offset)])."""
        execution = self.session.execute_batch(
            self.workload.operations, ids, batch_index
        )
        return (
            execution.pcu_cycles,
            execution.service_cycles,
            execution.completions(execution.pcu_cycles),
        )

    def drain(self, batch_index: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Single-machine batches never defer completions."""
        return 0, []

    def recover_after_crash(self) -> int:
        """Crash+recover mid-traffic; returns the downtime in cycles.

        The crashed batch is gone (its WAL group never committed).
        Recovery rebuilds the tree from the newest valid checkpoint plus
        the committed WAL tail, bills the restart through
        :meth:`~repro.model.costs.DurabilityCosts.recovery_seconds`, and
        re-opens a fresh session (and WAL) over the recovered tree so
        traffic resumes exactly where a restarted server would.
        """
        accelerator = self.accelerator
        manager = accelerator.durability
        if manager is None:  # pragma: no cover - injector skips unarmed crashes
            raise SimulationError("crash without a DurabilityManager attached")
        manager.close()
        recovery = recover(manager.directory)
        downtime_seconds = manager.costs.recovery_seconds(recovery.ops_replayed)
        accelerator.durability = DurabilityManager(
            manager.directory,
            checkpoint_every=manager.checkpoint_every,
            costs=manager.costs,
        )
        self.session = accelerator.open_session(self.workload, recovery.tree)
        clock_hz = accelerator.config.costs.clock_hz
        return max(1, int(downtime_seconds * clock_hz))

    def close(self) -> None:
        if self.accelerator.durability is not None:
            self.accelerator.durability.close()


class _ClusterBackend:
    """Serve through a sharded :class:`ClusterCoordinator`.

    Batch pricing maps onto the serve loop's ``(pcu, service)`` split as
    ``(routing, shard phase + administration)``: the coordinator's
    serial routing prelude plays the PCU's role, and failover or
    rebalance administration extends the service phase of the batch it
    lands in.  Ops deferred to a dark shard complete in a *later* batch
    (the one whose failover drains the handoff queue), which is why the
    serve loop keeps arrival stamps across batches.
    """

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterConfig,
        accel_config: DCARTConfig,
        schedule: Optional[FaultSchedule],
    ):
        self.coordinator = ClusterCoordinator(
            workload,
            cluster,
            accel_config=accel_config,
            schedule=schedule,
        )

    def execute(
        self, ids: IdArray, batch_index: int
    ) -> Tuple[int, int, List[Tuple[int, int]]]:
        result = self.coordinator.execute_batch(ids, batch_index)
        return (
            result.route_cycles,
            result.shard_cycles + result.admin_cycles,
            result.completions,
        )

    def drain(self, batch_index: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Spin the cluster clock until pending failovers finish."""
        result = self.coordinator.drain(batch_index)
        return result.admin_cycles, result.completions

    def close(self) -> None:
        self.coordinator.close()


class _CalibratedBackend:
    """Serve a baseline engine at its calibrated closed-loop rate.

    The CPU/GPU engines have no per-batch hardware session to replay, so
    serving prices their batches at the mean service rate measured
    closed-loop: a batch of *n* ops occupies the server ``n / rate``
    seconds, ops completing evenly through it.  Faults and durability do
    not apply (those are DCART subsystems).
    """

    def __init__(self, ops_per_s: float, clock_hz: float):
        if ops_per_s <= 0:
            raise ConfigError(
                f"calibrated service rate must be positive: {ops_per_s}"
            )
        self.cycles_per_op = clock_hz / ops_per_s

    def execute(
        self, ids: IdArray, batch_index: int
    ) -> Tuple[int, int, List[Tuple[int, int]]]:
        completions = [
            (op_id, int(math.ceil((j + 1) * self.cycles_per_op)))
            for j, op_id in enumerate(ids.tolist())
        ]
        service_cycles = int(math.ceil(len(ids) * self.cycles_per_op))
        return 0, service_cycles, completions

    def drain(self, batch_index: int) -> Tuple[int, List[Tuple[int, int]]]:
        return 0, []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------


class ServingSimulator:
    """Open-loop serving over one workload and one engine."""

    def __init__(
        self,
        workload: Workload,
        serve: ServeConfig,
        engine: str = "DCART",
        accel_config: Optional[DCARTConfig] = None,
        schedule: Optional[FaultSchedule] = None,
        capacity_ops_per_s: Optional[float] = None,
        cluster_config: Optional[ClusterConfig] = None,
    ):
        self.workload = workload
        self.serve = serve
        self.engine = engine
        self.schedule = schedule
        self.cluster_config = cluster_config
        self.accel_config = (
            accel_config if accel_config is not None else DCARTConfig()
        )
        if cluster_config is not None and engine != "DCART":
            raise ConfigError(
                f"cluster serving requires the DCART engine (got {engine!r})"
            )
        if engine == "DCART":
            self.clock_hz = self.accel_config.costs.clock_hz
            if schedule is not None and cluster_config is not None:
                schedule.check_run(
                    self.accel_config.n_sous,
                    cluster_config.n_shards,
                    cluster_config.replicas,
                )
            elif schedule is not None:
                schedule.check_run(self.accel_config.n_sous)
        else:
            if schedule is not None:
                raise ConfigError(
                    "fault schedules require the DCART engine "
                    f"(got {engine!r})"
                )
            self.clock_hz = NS_CLOCK_HZ
        self._capacity = capacity_ops_per_s

    # ------------------------------------------------------------------

    def capacity_ops_per_s(self) -> float:
        """Closed-loop capacity the offered-load fractions scale from."""
        if self._capacity is None:
            self._capacity = self._calibrate()
        return self._capacity

    def _calibrate(self) -> float:
        if self.cluster_config is not None:
            # The cluster's own closed-loop drain: routing and any
            # rebalance probes bill into the capacity the offered-load
            # fractions scale from; replication does not (a shipped
            # group's ready cycle paces its replica, never the cluster
            # clock).  No faults: the capacity is the healthy cluster's.
            report = ClusterCoordinator(
                self.workload,
                self.cluster_config,
                accel_config=self.accel_config,
            ).run(batch_size=self.serve.batch_size)
            rate = float(report["throughput_mops"]) * 1e6
            if rate <= 0:
                raise ConfigError(
                    "cannot calibrate cluster serving capacity: "
                    "closed-loop throughput is zero"
                )
            return rate
        if self.engine == "DCART":
            result = DcartAccelerator(config=self.accel_config).run(
                self.workload
            )
        else:
            from repro.harness.runner import default_engines

            engine_obj = default_engines(
                self.workload.n_keys, include=[self.engine]
            )[0]
            result = engine_obj.run(self.workload)
        rate = result.throughput_mops * 1e6
        if rate <= 0:
            raise ConfigError(
                f"cannot calibrate serving capacity for {self.engine}: "
                "closed-loop throughput is zero"
            )
        return rate

    def _make_admission(self, seed: int) -> AdmissionPolicy:
        serve = self.serve
        if serve.admission == "token-bucket":
            return make_admission(
                "token-bucket",
                serve.queue_capacity,
                fill_rate_per_cycle=self.capacity_ops_per_s() / self.clock_hz,
                burst=serve.batch_size,
            )
        return make_admission(
            serve.admission,
            serve.queue_capacity,
            watermark=serve.watermark,
            seed=seed,
        )

    def _open_backend(self, durability_dir: Optional[str]):
        if self.cluster_config is not None:
            return _ClusterBackend(
                self.workload,
                self.cluster_config,
                self.accel_config,
                self.schedule,
            )
        if self.engine != "DCART":
            return _CalibratedBackend(self.capacity_ops_per_s(), self.clock_hz)
        injector = (
            FaultInjector(self.schedule) if self.schedule is not None else None
        )
        durability = None
        if durability_dir is not None:
            durability = DurabilityManager(
                durability_dir, checkpoint_every=self.serve.checkpoint_every
            )
        accelerator = DcartAccelerator(
            config=self.accel_config, injector=injector, durability=durability
        )
        tree = accelerator.build_tree(self.workload)
        return _DcartBackend(accelerator, self.workload, tree)

    # ------------------------------------------------------------------

    def run(
        self,
        offered_load: float,
        seed: int = 1,
        durability_dir: Optional[str] = None,
    ) -> ServeResult:
        """One serving run at ``offered_load`` x closed-loop capacity.

        A :class:`CrashFault` on the schedule needs ``durability_dir``;
        without one the injector logs and skips the crash (nothing to
        tear).  Everything is a pure function of ``(workload, serve,
        schedule, offered_load, seed)``, so re-running reproduces the
        result bit for bit.
        """
        if offered_load <= 0:
            raise ConfigError(f"offered load must be positive: {offered_load}")
        serve = self.serve
        rate = offered_load * self.capacity_ops_per_s()
        n_ops = self.workload.n_ops
        arrivals = make_arrivals(
            serve.arrival, burst_factor=serve.burst_factor
        ).arrival_cycles(n_ops, rate, self.clock_hz, seed)
        admission = self._make_admission(seed)
        deadline_cycles = max(
            1, int(serve.deadline_us * 1e-6 * self.clock_hz)
        )
        former = BatchFormer(serve.batch_size, deadline_cycles)
        backend = self._open_backend(durability_dir)
        tracker = SloTracker()

        server_free = 0
        batch_index = 0
        n_batches = deadline_batches = 0
        admitted = shed = lost = completed = 0
        crashes = 0
        downtime_cycles = 0
        queue_peak = 0
        fault_cycles: List[int] = []
        pending_faults = {
            first_batch(event)
            for event in (self.schedule.events if self.schedule else ())
        }
        # Formed-but-unstarted batches, for the backpressure signal:
        # (service start cycle, n_ops); drained as arrivals pass starts.
        backlog: Deque[Tuple[int, int]] = deque()
        backlog_ops = 0
        # Arrival stamps of admitted-but-uncompleted ops.  Kept across
        # batches: a cluster backend defers ops routed to a dark shard
        # and completes them in the batch whose failover drains the
        # handoff queue, so a completion may reference an earlier
        # batch's op.  Entries pop when the op completes.
        arrival_by_id: Dict[int, int] = {}

        def record_completions(
            completions: List[Tuple[int, int]], start: int
        ) -> None:
            nonlocal completed
            for op_id, offset in completions:
                completion = start + offset
                arrived = arrival_by_id.pop(op_id, None)
                if arrived is None:  # pragma: no cover - SOUs report all ops
                    continue
                tracker.record(
                    completion,
                    (completion - arrived) / self.clock_hz * 1e6,
                )
                completed += 1

        def execute(batch: FormedBatch) -> None:
            nonlocal server_free, batch_index, n_batches, deadline_batches
            nonlocal lost, crashes, downtime_cycles, backlog_ops
            start = max(server_free, batch.close_cycle)
            if batch_index in pending_faults:
                pending_faults.discard(batch_index)
                fault_cycles.append(start)
            arrival_by_id.update(zip(batch.op_ids, batch.arrival_cycles))
            try:
                pcu, service, completions = backend.execute(
                    np.array(batch.op_ids, dtype=np.int64), batch_index
                )
            except SimulatedCrash:
                # Only the single-machine DCART backend crashes: a cluster
                # refuses a CrashFault and a baseline takes no schedule.
                crashes += 1
                lost += len(batch.op_ids)
                for op_id in batch.op_ids:
                    arrival_by_id.pop(op_id, None)
                down = backend.recover_after_crash()
                downtime_cycles += down
                server_free = start + down
                n_batches += 1
                batch_index += 1
                return
            end = start + pcu + service
            record_completions(completions, start)
            server_free = end
            n_batches += 1
            if batch.closed_by_deadline:
                deadline_batches += 1
            batch_index += 1
            backlog.append((start, len(batch.op_ids)))
            backlog_ops += len(batch.op_ids)

        for op_id, now in enumerate(arrivals.tolist()):
            expired = former.poll(now)
            if expired is not None:
                execute(expired)
            while backlog and backlog[0][0] <= now:
                backlog_ops -= backlog.popleft()[1]
            depth = former.pending + backlog_ops
            queue_peak = max(queue_peak, depth)
            if admission.admit(now, depth):
                admitted += 1
                full = former.offer(op_id, now)
                if full is not None:
                    execute(full)
            else:
                shed += 1

        last_arrival = int(arrivals[-1]) if arrivals.size else 0
        tail = former.flush(last_arrival)
        if tail is not None:
            execute(tail)
        # A shard that died near the end of the stream may still be
        # awaiting failover; spin the cluster forward so its handoff
        # ops complete rather than silently vanish.
        drain_cycles, drain_completions = backend.drain(batch_index)
        if drain_completions:
            record_completions(drain_completions, server_free)
        server_free += drain_cycles
        backend.close()

        percentiles = tracker.percentiles()
        goodput_mops = 0.0
        if tracker.n_completed:
            first_arrival = int(arrivals[0])
            last_completion = int(tracker.completion_order()[0][-1])
            span_seconds = (
                max(1, last_completion - first_arrival) / self.clock_hz
            )
            goodput_mops = completed / span_seconds / 1e6

        result = ServeResult(
            engine=self.engine,
            workload=self.workload.name,
            seed=seed,
            offered_load=offered_load,
            rate_ops_per_s=rate,
            offered_ops=n_ops,
            admitted_ops=admitted,
            shed_ops=shed,
            lost_ops=lost,
            completed_ops=completed,
            n_batches=n_batches,
            deadline_batches=deadline_batches,
            queue_peak=queue_peak,
            p50_us=percentiles["p50_us"],
            p99_us=percentiles["p99_us"],
            p999_us=percentiles["p999_us"],
            goodput_mops=goodput_mops,
            crashes=crashes,
            downtime_cycles=downtime_cycles,
            fault_cycles=fault_cycles,
            tracker=tracker,
        )
        if serve.slo_us is not None and fault_cycles:
            result.rto_cycles = rto_cycles(
                tracker, fault_cycles[0], serve.slo_us, serve.rto_window_ops
            )
        return result


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def load_sweep(
    workload: Workload,
    serve: ServeConfig,
    loads: Sequence[float],
    seed: int = 1,
    engine: str = "DCART",
    accel_config: Optional[DCARTConfig] = None,
    schedule: Optional[FaultSchedule] = None,
    durability_dir: Optional[str] = None,
    capacity_ops_per_s: Optional[float] = None,
    cluster_config: Optional[ClusterConfig] = None,
) -> Dict[str, object]:
    """Sweep offered load; emit the ``serve-sweep/v1`` report dict.

    Loads are fractions of the engine's calibrated closed-loop capacity
    and are swept in ascending order.  The SLO comes from
    ``serve.slo_us`` when pinned, else ``SLO_FACTOR`` x the lowest
    load's p99.  The knee is the highest swept load whose p99 meets the
    SLO (``None`` when even the lowest misses it).  When ``schedule``
    carries faults, each row's recovery-time objective is computed
    against that SLO; a :class:`~repro.faults.schedule.CrashFault` run
    stores its durable state under ``durability_dir`` (one subdirectory
    per load).
    """
    if not loads:
        raise ConfigError("load sweep needs at least one offered load")
    ordered = sorted(loads)
    if ordered[0] <= 0:
        raise ConfigError(f"offered loads must be positive: {ordered[0]}")
    simulator = ServingSimulator(
        workload,
        serve,
        engine=engine,
        accel_config=accel_config,
        schedule=schedule,
        capacity_ops_per_s=capacity_ops_per_s,
        cluster_config=cluster_config,
    )
    capacity = simulator.capacity_ops_per_s()

    rows: List[ServeResult] = []
    for index, load in enumerate(ordered):
        run_dir = None
        if durability_dir is not None:
            run_dir = f"{durability_dir}/load-{index}"
        rows.append(simulator.run(load, seed=seed, durability_dir=run_dir))

    if serve.slo_us is not None:
        slo_us = serve.slo_us
    else:
        slo_us = SLO_FACTOR * max(rows[0].p99_us, 1.0)
    for row in rows:
        if row.fault_cycles:
            row.rto_cycles = rto_cycles(
                row.tracker, row.fault_cycles[0], slo_us, serve.rto_window_ops
            )
    knee_load: Optional[float] = None
    for load, row in zip(ordered, rows):
        if row.p99_us <= slo_us:
            knee_load = load

    return {
        "schema": SERVE_SCHEMA,
        "engine": engine,
        "workload": workload.name,
        "seed": seed,
        "arrival": serve.arrival,
        "admission": serve.admission,
        "batch_size": serve.batch_size,
        "deadline_us": serve.deadline_us,
        "queue_capacity": serve.queue_capacity,
        "capacity_ops_per_s": capacity,
        "cluster": (
            {
                "n_shards": cluster_config.n_shards,
                "replicas": cluster_config.replicas,
                "partitioning": cluster_config.partitioning,
                "rebalance": cluster_config.rebalance,
            }
            if cluster_config is not None
            else None
        ),
        "slo_us": slo_us,
        "knee_load": knee_load,
        "fault_schedule_signature": (
            schedule.signature() if schedule is not None else None
        ),
        "rows": [row.to_dict() for row in rows],
    }
