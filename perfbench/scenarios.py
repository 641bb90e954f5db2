"""The benchmark's workloads: inputs from a seed, the measured call, the
output check.

Each workload is built from its ``--seed`` alone and hands the simulator
only the generated inputs.  A repetition has three phases that the
runner times separately: :meth:`setup` (workload generation, tree build,
capacity calibration), :meth:`run` (the simulated phase, the only part
``sim_ops_per_s`` counts) and :meth:`finish` (the output check and the
modelled-output digest, untimed).

Why these three workloads (see README.md for the numbers):

* ``ipgeo-hot`` is the paper's regime: most ops are served by the
  Shortcut_Table, so SOU per-op bookkeeping and PCU combining dominate.
* ``rs-churn-durable`` is the opposite: uniform sparse keys at low skew
  halve the shortcut hit share, so traversal, tree mutation, WAL and
  checkpointing carry the run.  A gain on ``ipgeo-hot`` that costs
  writes or traversals shows here.
* ``serve-cluster-failover`` is the only workload that runs the open-loop
  serve event loop, cluster routing, replication and failover.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.art.validate import validate_tree
from repro.cluster import ClusterConfig
from repro.core.accelerator import DcartAccelerator
from repro.durability import DurabilityManager
from repro.errors import TreeError
from repro.faults import FaultSchedule
from repro.serve.simulator import ServeConfig, ServingSimulator
from repro.workloads import make_workload
from repro.workloads.ops import OpKind

from spans import span_or_null


@dataclass
class RepOutput:
    """What one repetition produced, after its output check."""

    #: Simulated ops the run phase was offered.
    sim_ops: int
    #: Ops in runs that failed the output check (all of a failed run's).
    failed_ops: int
    #: Why the check failed; empty when it passed.
    failure: str
    #: Modelled end-to-end metrics (deterministic for a seed).
    model: Dict[str, float]
    #: Modelled and structural per-layer counts (deterministic too).
    counts: Dict[str, float]
    #: Hash of every modelled output, latency arrays included.
    digest: str
    #: Human-readable notes for the report (sample counts and the like).
    notes: Dict[str, object]


def digest_of(scalars: Dict[str, object], arrays: List[np.ndarray]) -> str:
    """Stable hash of modelled scalars plus latency arrays (bit-exact)."""
    h = hashlib.sha256(json.dumps(scalars, sort_keys=True).encode())
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def closed_loop_mismatches(workload, tree) -> Tuple[int, str]:
    """Compare ``tree`` with a plain-dict replay of the op stream.

    The reference starts from the bulk load (key -> load position, as
    :meth:`Engine.build_tree` stores it) and applies every write and
    delete in stream order.  Returns ``(mismatched keys, reason)``; a
    tree that fails its structural validation counts one more.
    """
    expected = {key: position for position, key in enumerate(workload.loaded_keys)}
    for op in workload.operations:
        if op.kind is OpKind.WRITE:
            expected[op.key] = op.value
        elif op.kind is OpKind.DELETE:
            expected.pop(op.key, None)
    actual = dict(tree.items())
    mismatches = len(expected.keys() ^ actual.keys())
    mismatches += sum(
        1 for key, value in actual.items()
        if key in expected and expected[key] != value
    )
    reasons = [f"{mismatches} keys differ from the dict replay"] if mismatches else []
    try:
        tree.validate()
    except TreeError as exc:
        mismatches += 1
        reasons.append(f"tree invalid: {exc}")
    return mismatches, "; ".join(reasons)


@dataclass(frozen=True)
class ClosedLoop:
    """DCART defaults draining a fixed op stream over one tree."""

    dataset: str
    n_keys: int
    n_ops: int
    op_skew: float
    write_ratio: float
    #: WAL plus a checkpoint every ``CHECKPOINT_EVERY`` batches.
    durable: bool
    default_seed: int

    CHECKPOINT_EVERY = 4

    @property
    def offered_ops(self) -> int:
        return self.n_ops

    def setup(self, seed: int, tracer=None):
        with span_or_null(tracer, "workloads.generate"):
            workload = make_workload(
                self.dataset,
                n_keys=self.n_keys,
                n_ops=self.n_ops,
                op_skew=self.op_skew,
                write_ratio=self.write_ratio,
                seed=seed,
            )
        tree = DcartAccelerator().build_tree(workload)
        return workload, tree

    def run(self, prepared, workdir: str):
        workload, tree = prepared
        durability = None
        if self.durable:
            # real_fsync=False: the modelled fsync, so host disk speed
            # does not enter the measurement.
            durability = DurabilityManager(
                workdir,
                checkpoint_every=self.CHECKPOINT_EVERY,
                real_fsync=False,
            )
        return DcartAccelerator(durability=durability).run(workload, tree=tree)

    def finish(self, prepared, result) -> RepOutput:
        workload, tree = prepared
        mismatches, failure = closed_loop_mismatches(workload, tree)
        extra = result.extra
        model = {
            "model_mops": result.throughput_mops,
            "model_p99_us": result.p99_latency_us,
        }
        counts = {"model.total_cycles": extra["total_cycles"]}
        if self.durable:
            counts["durability.wal_bytes_per_op"] = (
                extra["wal_bytes"] / max(1, extra["wal_ops_logged"])
            )
            counts["durability.checkpoint_bytes"] = extra["checkpoint_bytes"]
        scalars = {key: extra[key] for key in sorted(extra)}
        scalars.update(model)
        return RepOutput(
            sim_ops=workload.n_ops,
            failed_ops=workload.n_ops if mismatches else 0,
            failure=failure,
            model=model,
            counts=counts,
            digest=digest_of(scalars, [result.latencies_ns]),
            notes={"p99_samples": int(result.latencies_ns.size)},
        )


class _ObservedServer(ServingSimulator):
    """A serving simulator that keeps each run's backend for the check."""

    last_backend = None

    def _open_backend(self, durability_dir):
        self.last_backend = super()._open_backend(durability_dir)
        return self.last_backend


@dataclass(frozen=True)
class ServeFailover:
    """Open-loop serving over a 4-shard cluster that loses one primary."""

    n_keys: int
    n_ops: int
    op_skew: float
    #: Offered loads as fractions of calibrated capacity, ascending.
    loads: Tuple[float, ...]
    fail_batch: int
    default_seed: int

    N_SHARDS = 4

    @property
    def offered_ops(self) -> int:
        return self.n_ops * len(self.loads)

    def setup(self, seed: int, tracer=None):
        with span_or_null(tracer, "workloads.generate"):
            workload = make_workload(
                "IPGEO",
                n_keys=self.n_keys,
                n_ops=self.n_ops,
                op_skew=self.op_skew,
                seed=seed,
            )
        server = _ObservedServer(
            workload,
            ServeConfig(
                arrival="poisson",
                admission="drop-tail",
                batch_size=512,
                deadline_us=100.0,
            ),
            schedule=FaultSchedule.fail_shards(
                1, seed, n_shards=self.N_SHARDS, at_batch=self.fail_batch
            ),
            cluster_config=ClusterConfig(
                n_shards=self.N_SHARDS, replicas=1, partitioning="hash", seed=seed
            ),
        )
        with span_or_null(tracer, "serve.calibrate"):
            server.capacity_ops_per_s()
        return server, seed

    def run(self, prepared, workdir: str):
        server, seed = prepared
        rows = []
        for load in self.loads:
            row = server.run(load, seed=seed)
            rows.append((row, server.last_backend.coordinator))
        return rows

    def finish(self, prepared, rows) -> RepOutput:
        server, _ = prepared
        failed = 0
        reasons: List[str] = []
        for row, coordinator in rows:
            problems = self._check_row(row, coordinator)
            if problems:
                failed += row.offered_ops
                reasons.append(f"load {row.offered_load}: " + ", ".join(problems))
        top, top_coordinator = rows[-1]
        failovers = top_coordinator.failovers
        model = {
            "model_mops": top.goodput_mops,
            "model_p99_us": top.p99_us,
            "model_shed_share": top.shed_rate,
            "model_rto_us": (
                failovers[0].rto_cycles / server.clock_hz * 1e6 if failovers else 0.0
            ),
        }
        all_results = [row for row, _ in rows]
        coordinators = [coordinator for _, coordinator in rows]
        n_batches = sum(row.n_batches for row in all_results)
        counts = {
            "model.total_cycles": sum(c.clock for c in coordinators),
            "serve.batches": n_batches,
            "serve.deadline_batch_share": (
                sum(row.deadline_batches for row in all_results) / max(1, n_batches)
            ),
            "serve.queue_peak": max(row.queue_peak for row in all_results),
            "cluster.failovers": sum(len(c.failovers) for c in coordinators),
            "cluster.handoff_ops": sum(
                record.handoff_ops for c in coordinators for record in c.failovers
            ),
        }
        scalars = {
            "rows": [row.to_dict() for row in all_results],
            "clocks": [c.clock for c in coordinators],
            "failovers": [[r.to_dict() for r in c.failovers] for c in coordinators],
        }
        scalars.update(model)
        return RepOutput(
            sim_ops=sum(row.offered_ops for row in all_results),
            failed_ops=failed,
            failure="; ".join(reasons),
            model=model,
            counts=counts,
            digest=digest_of(
                scalars, [row.tracker.latencies_us() for row in all_results]
            ),
            notes={
                "p99_samples": top.completed_ops,
                "p99_by_load": {row.offered_load: row.p99_us for row in all_results},
                "shed_by_load": {row.offered_load: row.shed_ops for row in all_results},
            },
        )

    def _check_row(self, row, coordinator) -> List[str]:
        """Op conservation, no lost committed op, valid promoted shards."""
        problems: List[str] = []
        accounted = row.completed_ops + row.shed_ops + row.lost_ops
        if accounted != row.offered_ops:
            problems.append(
                f"{accounted} ops accounted for of {row.offered_ops} offered"
            )
        if row.lost_ops:
            problems.append(f"{row.lost_ops} committed ops lost")
        promoted = [shard for shard in coordinator.shards if shard.failed_over]
        if len(coordinator.failovers) != 1 or len(promoted) != 1:
            problems.append(
                f"{len(coordinator.failovers)} failovers, expected exactly 1"
            )
        for shard in promoted:
            report = validate_tree(shard.tree)
            if not report.ok:
                problems.append(f"promoted shard {shard.shard_id} invalid")
        return problems


#: The named workloads.  Sizes are chosen so one repetition (setup plus
#: run) takes a few seconds on one core, giving several repetitions per
#: measured run; README.md records the timings.
WORKLOADS: Dict[str, object] = {
    "ipgeo-hot": ClosedLoop(
        dataset="IPGEO",
        n_keys=100_000,
        n_ops=500_000,
        op_skew=0.99,
        write_ratio=0.5,
        durable=False,
        default_seed=42,
    ),
    "rs-churn-durable": ClosedLoop(
        dataset="RS",
        n_keys=200_000,
        n_ops=150_000,
        op_skew=0.6,
        write_ratio=0.5,
        durable=True,
        default_seed=42,
    ),
    "serve-cluster-failover": ServeFailover(
        n_keys=40_000,
        n_ops=100_000,
        # Below IPGEO's default 1.2: at 1.2 the shard that draws the
        # hottest keys sets the cluster's capacity, so the modelled
        # goodput and p99 swing by a fifth from seed to seed.
        op_skew=0.8,
        loads=(0.5, 0.9),
        fail_batch=60,
        default_seed=7,
    ),
}
