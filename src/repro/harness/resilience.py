"""Graceful-degradation and crash-recovery experiments (chaos harness).

Two contracts a production accelerator must honour:

* **Degradation** — unit failures cost *throughput*, never
  *correctness*.  :func:`faulted_run` executes DCART under a fault
  schedule (:func:`repro.experiments.spec.fault_schedule` places one
  from a fault string) and re-validates every ART invariant on the
  final tree; :func:`degradation_ratio` compares it against a healthy
  run and :func:`is_graceful` against the *proportional* limit
  (``n_sous / survivors``): graceful means within 2x of proportional.
* **Durability** — a crash costs the *uncommitted tail*, never the
  committed prefix.  :func:`crash_recover_verify` kills one durable run
  at a seeded point of the WAL/checkpoint/replay protocol, recovers,
  and proves the rebuilt tree (a) passes the standalone invariant
  validator and (b) exactly equals the committed-prefix reference —
  the bulk load plus every *committed* batch replayed in order.

Grids of these runs are campaigns (:mod:`repro.experiments.campaign`).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from random import Random
from typing import Optional, Tuple

import numpy as np

from repro.art.tree import AdaptiveRadixTree
from repro.art.validate import ValidationReport, validate_tree
from repro.core.accelerator import DcartAccelerator
from repro.core.config import DCARTConfig
from repro.durability import DurabilityManager, recover
from repro.durability.manager import CRASH_POINTS
from repro.engines.base import RunResult
from repro.errors import KeyNotFoundError, SimulatedCrash
from repro.faults import CrashFault, FaultInjector, FaultSchedule
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


def degradation_ratio(healthy_mops: float, faulted_mops: float) -> float:
    """Observed slowdown: healthy throughput over faulted throughput.

    Vacuous comparisons are 1.0, not a division blow-up: an empty
    workload (both runs at zero throughput) did not degrade, it
    measured nothing.  ``inf`` is reserved for a genuine stall — the
    healthy machine made progress and the faulted one did not.
    """
    if healthy_mops == 0:
        return 1.0
    if faulted_mops == 0:
        return float("inf")
    return healthy_mops / faulted_mops


def proportional_loss_ratio(n_sous: int, n_failed: int) -> float:
    """Slowdown of a perfectly rebalanced machine losing ``n_failed`` units."""
    if n_sous <= 0:
        return 1.0
    survivors = n_sous - n_failed
    if survivors <= 0:
        return float("inf")
    return n_sous / survivors


def is_graceful(tree_valid: bool, degradation: float, proportional: float) -> bool:
    """Within the 2x-of-proportional degradation bound, and correct."""
    return tree_valid and degradation <= GRACEFUL_FACTOR * proportional


def faulted_run(
    config: DCARTConfig, workload: Workload, schedule: FaultSchedule, *,
    telemetry=None,
) -> Tuple[RunResult, ValidationReport]:
    """Build the tree, run ``workload`` under ``schedule``, validate.

    An empty schedule reads the same throughput as no injector at all.
    A schedule one machine cannot fire (a shard event, an SOU it does
    not have) is a :class:`~repro.errors.ConfigError` before the build.
    A :class:`~repro.errors.FaultError` (watchdog, every SOU dead)
    propagates: it is the outcome of a scenario the machine cannot
    survive.
    """
    schedule.check_run(config.n_sous)
    accelerator = DcartAccelerator(
        config=config, injector=FaultInjector(schedule), telemetry=telemetry
    )
    tree = accelerator.build_tree(workload)
    LOG.info("chaos run starting: %s", schedule.describe())
    result = accelerator.run(workload, tree=tree)
    return result, validate_tree(tree)


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
    stream = workload.operations
    committed = np.arange(min(len(stream), (committed_through + 1) * batch_size))
    kinds, keys, values, _ = stream.gather(committed)
    for kind, key, value in zip(kinds, keys, values):
        if kind is OpKind.WRITE:
            tree.upsert(key, value)
        elif kind is OpKind.DELETE:
            try:
                tree.delete(key)
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
    write_ratio: Optional[float] = None,
    op_skew: Optional[float] = None,
) -> CrashRecoveryOutcome:
    """Kill one durable run at a seeded crash point, recover, verify.

    With ``crash_point``/``crash_batch`` omitted they are drawn from the
    seed (point from :data:`CRASH_MATRIX`, batch uniformly over the
    run).  The ``replay`` point lets the run complete, then crashes the
    *first recovery* mid-replay and recovers again — proving recovery is
    idempotent over unchanged files.  With no ``directory`` the trial
    runs in a temporary one, removed once the verdict is in.
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="dcart-crash-") as scratch:
            return crash_recover_verify(
                seed, scratch, crash_point, crash_batch, workload_name,
                n_keys, n_ops, checkpoint_every, write_ratio, op_skew,
            )
    rng = Random(seed)
    workload = make_workload(
        workload_name, n_keys=n_keys, n_ops=n_ops, seed=seed,
        write_ratio=write_ratio, op_skew=op_skew,
    )
    config = chaos_config(n_keys)
    n_batches = -(-n_ops // config.batch_size)
    point = crash_point if crash_point is not None else rng.choice(CRASH_MATRIX)
    batch = (
        crash_batch if crash_batch is not None else rng.randrange(max(1, n_batches))
    )

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
