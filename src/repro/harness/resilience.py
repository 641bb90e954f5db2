"""Graceful-degradation and crash-recovery experiments (chaos harness).

Two contracts a production accelerator must honour:

* **Degradation** — unit failures cost *throughput*, never
  *correctness*.  :func:`chaos_run` executes one faulted DCART run,
  re-validates every ART invariant on the final tree, and compares
  against the healthy baseline; :func:`degradation_curve` sweeps the
  number of fail-stopped SOUs (0..15) against the *proportional* limit
  (``n_sous / survivors``); graceful means within 2x of proportional.
* **Durability** — a crash costs the *uncommitted tail*, never the
  committed prefix.  :func:`crash_recover_verify` kills one durable run
  at a seeded point of the WAL/checkpoint/replay protocol, recovers,
  and proves the rebuilt tree (a) passes the standalone invariant
  validator and (b) exactly equals the committed-prefix reference —
  the bulk load plus every *committed* batch replayed in order.
  :func:`crash_recovery_campaign` sweeps that over many seeds (the
  acceptance loop: >= 50 random crash points, all exact).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from random import Random
from typing import Dict, Optional

from repro.art.tree import AdaptiveRadixTree
from repro.art.validate import ValidationReport, validate_tree
from repro.core.accelerator import DcartAccelerator
from repro.core.config import DCARTConfig
from repro.durability import DurabilityManager, recover
from repro.durability.manager import CRASH_POINTS
from repro.engines.base import RunResult
from repro.errors import KeyNotFoundError, SimulatedCrash
from repro.faults import CrashFault, FaultInjector, FaultSchedule, Watchdog
from repro.harness.experiments import ExperimentResult
from repro.harness.runner import scaled_dcart_config
from repro.log import get_logger
from repro.workloads import make_workload
from repro.workloads.ops import OpKind, Workload

LOG = get_logger("resilience")

#: Default chaos scale: small enough for CI, large enough for >= 8
#: batches so mid-run faults land in a live pipeline.
DEFAULT_KEYS = 2_000
DEFAULT_OPS = 20_000
DEFAULT_BATCH_SIZE = 2_048

#: Graceful-degradation bound: observed slowdown may not exceed this
#: multiple of the proportional capacity loss.
GRACEFUL_FACTOR = 2.0


def chaos_config(
    n_keys: int = DEFAULT_KEYS, batch_size: int = DEFAULT_BATCH_SIZE
) -> DCARTConfig:
    """Cache-scaled DCART config with a chaos-friendly batch size."""
    return scaled_dcart_config(n_keys, DCARTConfig(batch_size=batch_size))


@dataclass
class ChaosOutcome:
    """One faulted run, its healthy baseline, and the correctness oracle."""

    schedule: FaultSchedule
    result: RunResult
    baseline: RunResult
    validation: ValidationReport
    n_sous: int

    @property
    def n_failed(self) -> int:
        return len(self.result.extra.get("failed_sous", ()))

    @property
    def degradation(self) -> float:
        """Observed slowdown: healthy throughput over faulted throughput.

        Vacuous comparisons are 1.0, not a division blow-up: an empty
        workload (both runs at zero throughput) did not degrade, it
        measured nothing.  ``inf`` is reserved for a genuine stall —
        the healthy machine made progress and the faulted one did not.
        """
        if self.baseline.throughput_mops == 0:
            return 1.0
        if self.result.throughput_mops == 0:
            return float("inf")
        return self.baseline.throughput_mops / self.result.throughput_mops

    @property
    def proportional_loss(self) -> float:
        """Slowdown of a perfectly rebalanced machine losing those units."""
        if self.n_sous <= 0:
            return 1.0
        survivors = self.n_sous - self.n_failed
        if survivors <= 0:
            return float("inf")
        return self.n_sous / survivors

    @property
    def graceful(self) -> bool:
        """Within the 2x-of-proportional degradation bound, and correct."""
        return (
            self.validation.ok
            and self.degradation <= GRACEFUL_FACTOR * self.proportional_loss
        )

    def summary(self) -> str:
        return (
            f"chaos: {self.n_failed}/{self.n_sous} SOUs failed, "
            f"{self.result.throughput_mops:.2f} Mops/s "
            f"(healthy {self.baseline.throughput_mops:.2f}), "
            f"degradation {self.degradation:.2f}x "
            f"(proportional {self.proportional_loss:.2f}x), "
            f"tree {self.validation.summary()}"
        )


def chaos_run(
    n_failed: int = 0,
    seed: int = 1,
    workload_name: str = "IPGEO",
    n_keys: int = DEFAULT_KEYS,
    n_ops: int = DEFAULT_OPS,
    schedule: Optional[FaultSchedule] = None,
    config: Optional[DCARTConfig] = None,
    watchdog: Optional[Watchdog] = None,
    workload=None,
    baseline: Optional[RunResult] = None,
) -> ChaosOutcome:
    """Run DCART under one fault schedule and validate the outcome.

    With no explicit ``schedule``, fail-stops ``n_failed`` seed-chosen
    SOUs at batch 0.  ``workload``/``baseline``/``config`` may be passed
    in to share across a sweep; anything omitted is built here.
    A :class:`~repro.errors.FaultError` (watchdog, all units dead)
    propagates to the caller — that *is* the experiment's result for
    non-survivable scenarios.
    """
    if config is None:
        config = chaos_config(n_keys)
    if workload is None:
        workload = make_workload(
            workload_name, n_keys=n_keys, n_ops=n_ops, seed=seed
        )
    if schedule is None:
        schedule = FaultSchedule.fail_sous(
            n_failed, seed, n_sous=config.n_sous, at_batch=0
        )
    if baseline is None:
        baseline = DcartAccelerator(config=config).run(workload)

    # n_shards=0: a single-machine chaos run must refuse a schedule
    # carrying cluster-level events rather than silently ignore them.
    injector = FaultInjector(
        schedule.validate_sous(config.n_sous).validate_shards(0),
        watchdog=watchdog,
    )
    accelerator = DcartAccelerator(config=config, injector=injector)
    tree = accelerator.build_tree(workload)
    LOG.info("chaos run starting: %s", schedule.describe())
    result = accelerator.run(workload, tree=tree)
    validation = validate_tree(tree)
    outcome = ChaosOutcome(
        schedule=schedule,
        result=result,
        baseline=baseline,
        validation=validation,
        n_sous=config.n_sous,
    )
    LOG.info("%s", outcome.summary())
    return outcome


def degradation_curve(
    n_keys: int = DEFAULT_KEYS,
    n_ops: int = DEFAULT_OPS,
    seed: int = 1,
    workload_name: str = "IPGEO",
    max_failed: Optional[int] = None,
) -> ExperimentResult:
    """Throughput and p99 latency vs. number of fail-stopped SOUs.

    The headline resilience figure: one row per failure count from 0 to
    ``n_sous - 1``, the whole curve sharing one workload and one healthy
    baseline so every difference is the fault model's doing.
    """
    config = chaos_config(n_keys)
    if max_failed is None:
        max_failed = config.n_sous - 1
    workload = make_workload(workload_name, n_keys=n_keys, n_ops=n_ops, seed=seed)
    baseline = DcartAccelerator(config=config).run(workload)

    rows = []
    raw: dict = {workload_name: {}}
    for n_failed in range(0, max_failed + 1):
        outcome = chaos_run(
            n_failed=n_failed,
            seed=seed,
            config=config,
            workload=workload,
            baseline=baseline,
        )
        raw[workload_name][f"failed={n_failed}"] = outcome.result
        rows.append(
            [
                n_failed,
                outcome.result.throughput_mops,
                outcome.result.p99_latency_us,
                outcome.degradation,
                outcome.proportional_loss,
                "yes" if outcome.graceful else "NO",
                "ok" if outcome.validation.ok else "BROKEN",
            ]
        )
    return ExperimentResult(
        f"Resilience - degradation vs. failed SOUs ({workload_name})",
        [
            "failed SOUs",
            "Mops/s",
            "p99 (us)",
            "degradation (x)",
            "proportional (x)",
            "graceful",
            "tree",
        ],
        rows,
        notes=(
            "graceful = degradation within "
            f"{GRACEFUL_FACTOR:g}x of the proportional capacity loss; "
            "tree = ART invariant validator verdict on the final tree"
        ),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# crash – recover – validate
# ---------------------------------------------------------------------------

#: The full kill-point matrix the campaign samples from: every WAL and
#: checkpoint protocol step, plus a crash *during recovery replay*.
CRASH_MATRIX = CRASH_POINTS + ("replay",)


def committed_prefix_tree(
    workload: Workload, batch_size: int, committed_through: int
) -> AdaptiveRadixTree:
    """The reference oracle: bulk load + committed batches, sequentially.

    This is what recovery must reconstruct *exactly* (same key set, same
    values): the loaded keys plus every mutating op of batches
    ``0..committed_through`` applied in arrival order.  Per-key order is
    preserved by the PCU's combining (all ops on one key land in one
    bucket, in order), so the sequential replay and the accelerator's
    bucketed execution agree on the final state.
    """
    tree = AdaptiveRadixTree()
    for position, key in enumerate(workload.loaded_keys):
        tree.insert(key, position)
    for batch_index, batch in enumerate(workload.operations.batches(batch_size)):
        if batch_index > committed_through:
            break
        for op in batch:
            if op.kind is OpKind.WRITE:
                tree.upsert(op.key, op.value)
            elif op.kind is OpKind.DELETE:
                try:
                    tree.delete(op.key)
                except KeyNotFoundError:
                    pass
    return tree


@dataclass
class CrashRecoveryOutcome:
    """One crash–recover–validate trial."""

    seed: int
    crash_point: str
    crash_batch: int
    crashed: bool
    committed_through: int
    recovered_keys: int
    batches_replayed: int
    ops_replayed: int
    torn_tail_detected: bool
    checkpoints_skipped: int
    uncommitted_ops_skipped: int
    validation: ValidationReport
    #: Recovered tree's (key, value) set exactly equals the reference's.
    state_matches: bool
    extra: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Recovery correct: invariants hold AND state is exact."""
        return self.crashed and self.validation.ok and self.state_matches

    def summary(self) -> str:
        verdict = "EXACT" if self.state_matches else "DIVERGED"
        return (
            f"crash[{self.crash_point}@batch {self.crash_batch}, seed "
            f"{self.seed}]: recovered {self.recovered_keys} keys "
            f"(committed through {self.committed_through}, "
            f"{self.ops_replayed} ops replayed, "
            f"{self.uncommitted_ops_skipped} uncommitted skipped), "
            f"tree {self.validation.summary()}, state {verdict}"
        )


def crash_recover_verify(
    seed: int = 1,
    directory: Optional[str] = None,
    crash_point: Optional[str] = None,
    crash_batch: Optional[int] = None,
    workload_name: str = "IPGEO",
    n_keys: int = DEFAULT_KEYS,
    n_ops: int = DEFAULT_OPS,
    checkpoint_every: int = 3,
) -> CrashRecoveryOutcome:
    """Kill one durable run at a seeded crash point, recover, verify.

    With ``crash_point``/``crash_batch`` omitted they are drawn from the
    seed (point from :data:`CRASH_MATRIX`, batch uniformly over the
    run).  The ``replay`` point lets the run complete, then crashes the
    *first recovery* mid-replay and recovers again — proving recovery is
    idempotent over unchanged files.
    """
    rng = Random(seed)
    workload = make_workload(workload_name, n_keys=n_keys, n_ops=n_ops, seed=seed)
    config = chaos_config(n_keys)
    n_batches = -(-n_ops // config.batch_size)
    point = crash_point if crash_point is not None else rng.choice(CRASH_MATRIX)
    batch = (
        crash_batch if crash_batch is not None else rng.randrange(max(1, n_batches))
    )
    if directory is None:
        directory = tempfile.mkdtemp(prefix="dcart-crash-")

    durability = DurabilityManager(directory, checkpoint_every=checkpoint_every)
    injector = None
    if point != "replay":
        schedule = FaultSchedule(
            seed=seed, events=(CrashFault(batch, point, rng.randrange(1024)),)
        )
        injector = FaultInjector(schedule)
    accelerator = DcartAccelerator(
        config=config, injector=injector, durability=durability
    )
    tree = accelerator.build_tree(workload)

    crashed = False
    try:
        accelerator.run(workload, tree=tree)
        crashed = point == "replay"  # a replay crash happens post-run
    except SimulatedCrash as exc:
        crashed = True
        LOG.info("machine killed: %s", exc)
    finally:
        durability.close()

    if point == "replay":
        # Kill the first recovery attempt mid-replay, then go again: the
        # second pass must see byte-identical files (replay writes
        # nothing) and succeed.
        try:
            recover(directory, crash_at_op=rng.randrange(1, 64))
        except SimulatedCrash:
            pass
    recovery = recover(directory)

    reference = committed_prefix_tree(
        workload, config.batch_size, recovery.committed_through
    )
    state_matches = dict(recovery.tree.items()) == dict(reference.items())

    outcome = CrashRecoveryOutcome(
        seed=seed,
        crash_point=point,
        crash_batch=batch,
        crashed=crashed,
        committed_through=recovery.committed_through,
        recovered_keys=len(recovery.tree),
        batches_replayed=recovery.batches_replayed,
        ops_replayed=recovery.ops_replayed,
        torn_tail_detected=recovery.wal_torn,
        checkpoints_skipped=len(recovery.checkpoints_skipped),
        uncommitted_ops_skipped=recovery.uncommitted_ops_skipped,
        validation=recovery.validation,
        state_matches=state_matches,
    )
    LOG.info("%s", outcome.summary())
    return outcome


def crash_recovery_campaign(
    n_trials: int = 50,
    seed: int = 1,
    workload_name: str = "IPGEO",
    n_keys: int = DEFAULT_KEYS,
    n_ops: int = DEFAULT_OPS,
    checkpoint_every: int = 3,
) -> ExperimentResult:
    """The seeded crash–recover–validate loop (acceptance: all EXACT).

    Each trial gets its own seed (``seed + i``), its own temp directory,
    and a kill point drawn from the full matrix.  The rendered table is
    the durability counterpart of the degradation curve: one row per
    crash, and the verdict columns must read ``ok`` / ``EXACT`` on every
    single one.
    """
    rows = []
    all_ok = True
    for trial in range(n_trials):
        outcome = crash_recover_verify(
            seed=seed + trial,
            workload_name=workload_name,
            n_keys=n_keys,
            n_ops=n_ops,
            checkpoint_every=checkpoint_every,
        )
        all_ok = all_ok and outcome.ok
        rows.append(
            [
                outcome.seed,
                outcome.crash_point,
                outcome.crash_batch,
                outcome.committed_through,
                outcome.ops_replayed,
                outcome.uncommitted_ops_skipped,
                "yes" if outcome.torn_tail_detected else "no",
                outcome.checkpoints_skipped,
                "ok" if outcome.validation.ok else "BROKEN",
                "EXACT" if outcome.state_matches else "DIVERGED",
            ]
        )
    result = ExperimentResult(
        f"Durability - crash/recover/validate x{n_trials} ({workload_name})",
        [
            "seed",
            "crash point",
            "batch",
            "committed",
            "replayed ops",
            "skipped ops",
            "torn tail",
            "ckpts skipped",
            "tree",
            "state",
        ],
        rows,
        notes=(
            "state EXACT = recovered tree's key/value set equals the "
            "committed-prefix reference; torn trailing WAL records are "
            "CRC-detected and skipped, never applied"
        ),
    )
    result.raw = {"all_ok": all_ok}
    return result
