"""Replaying a :class:`FaultSchedule` against a live accelerator run.

The injector is the single point where the chaos harness touches the
hardware model: :class:`~repro.core.accelerator.DcartAccelerator` calls
:meth:`FaultInjector.start_batch` before combining each batch, queries
the slowdown/bandwidth multipliers while billing it, and hands the batch
total to the :class:`Watchdog` afterwards.  All mutation targets
(dispatcher, shortcut table, tree buffer) are passed in per batch, so
the injector owns no hardware state and one schedule can be replayed
against any configuration.

Determinism: every stochastic choice (which shortcut rows to corrupt,
which resident nodes a storm evicts) is drawn from a
``Random(schedule.seed ^ batch)`` stream over *sorted* candidate sets,
so the same seed against the same workload perturbs the same state.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Optional

from repro.errors import ConfigError, WatchdogTimeout
from repro.faults.schedule import (
    BufferStorm,
    CrashFault,
    FaultSchedule,
    ShortcutCorruption,
    SouFailStop,
)
from repro.log import get_logger

LOG = get_logger("faults")


class Watchdog:
    """Aborts a run whose batch blows through its cycle budget.

    The model is deterministic, so a literal hang cannot happen — what
    the watchdog guards against is *pathological degradation*: a fault
    combination that makes a batch orders of magnitude slower than the
    healthy machine would ever be.  The budget is per batch,
    ``max_cycles_per_op x ops``, mirroring a hardware watchdog counter
    armed at batch start.
    """

    def __init__(
        self,
        max_cycles_per_op: int = 100_000,
        floor_cycles: int = 1_000_000,
    ):
        if max_cycles_per_op <= 0:
            raise ConfigError(
                f"max_cycles_per_op must be positive: {max_cycles_per_op}"
            )
        self.max_cycles_per_op = max_cycles_per_op
        self.floor_cycles = floor_cycles
        self.fires = 0

    def budget_for(self, n_ops: int) -> int:
        return max(self.floor_cycles, n_ops * self.max_cycles_per_op)

    def check(
        self,
        batch_index: int,
        n_ops: int,
        batch_cycles: int,
        per_sou_cycles: Dict[int, int],
        failed_sous: List[int],
    ) -> None:
        """Raise :class:`WatchdogTimeout` if the batch exceeded budget."""
        budget = self.budget_for(n_ops)
        if batch_cycles <= budget:
            return
        self.fires += 1
        diagnostics = {
            "batch_index": batch_index,
            "batch_cycles": batch_cycles,
            "budget_cycles": budget,
            "n_ops": n_ops,
            "per_sou_cycles": {str(k): v for k, v in sorted(per_sou_cycles.items())},
            "failed_sous": sorted(failed_sous),
        }
        LOG.error(
            "watchdog fired: batch %d took %d cycles (budget %d)",
            batch_index, batch_cycles, budget,
        )
        raise WatchdogTimeout(
            f"batch {batch_index} exceeded its cycle budget "
            f"({batch_cycles} > {budget})",
            diagnostics,
        )


class FaultInjector:
    """Stateful replay of one :class:`FaultSchedule` over one run."""

    def __init__(
        self,
        schedule: FaultSchedule,
        watchdog: Optional[Watchdog] = None,
        shortcut_retry_limit: int = 2,
    ):
        if shortcut_retry_limit < 0:
            raise ConfigError(
                f"shortcut_retry_limit must be >= 0: {shortcut_retry_limit}"
            )
        self.schedule = schedule
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        self.shortcut_retry_limit = shortcut_retry_limit
        self.reset()

    def reset(self) -> None:
        """Rewind for a fresh run (schedules are replayable)."""
        self.current_batch = -1
        self.failed_sous: set = set()
        self.events_applied = 0
        self.shortcut_corruptions = 0
        self.storm_invalidations = 0
        self.corrupted_hits = 0
        self.retry_cycles = 0
        self.crashes_armed = 0
        self.crashes_skipped = 0

    # ------------------------------------------------------------------
    # per-batch hook (called by the accelerator before combining)
    # ------------------------------------------------------------------

    def start_batch(
        self, batch_index, dispatcher, shortcuts, tree_buffer, durability=None
    ) -> None:
        """Apply every point event scheduled for ``batch_index``.

        ``durability`` is the run's optional
        :class:`~repro.durability.DurabilityManager`; a
        :class:`CrashFault` arms its kill point there (the actual
        :class:`~repro.errors.SimulatedCrash` is raised by the manager
        at the exact protocol step, not here).
        """
        self.current_batch = batch_index
        for event in self.schedule.point_events_at(batch_index):
            self.events_applied += 1
            LOG.info("injecting fault: %s", event.describe())
            if isinstance(event, SouFailStop):
                self.failed_sous.add(event.sou_id)
                dispatcher.fail(event.sou_id)
            elif isinstance(event, ShortcutCorruption):
                self._corrupt_shortcuts(batch_index, event, shortcuts)
            elif isinstance(event, BufferStorm):
                self._storm(batch_index, event, tree_buffer)
            elif isinstance(event, CrashFault):
                if durability is None:
                    LOG.warning(
                        "crash fault at batch %d ignored: run has no "
                        "DurabilityManager", batch_index,
                    )
                    self.crashes_skipped += 1
                else:
                    durability.arm_crash(event.point, event.detail)
                    self.crashes_armed += 1

    def _corrupt_shortcuts(self, batch_index, event, shortcuts) -> None:
        if shortcuts is None or len(shortcuts) == 0:
            return
        rng = Random(self.schedule.seed ^ (batch_index + 1))
        keys = sorted(shortcuts.entry_keys())
        victims = rng.sample(keys, min(event.n_entries, len(keys)))
        for key in victims:
            shortcuts.corrupt(key)
        self.shortcut_corruptions += len(victims)

    def _storm(self, batch_index, event, tree_buffer) -> None:
        resident = sorted(tree_buffer.resident_addresses())
        if not resident:
            return
        rng = Random(self.schedule.seed ^ (batch_index + 1) ^ 0x570B)
        count = max(1, int(len(resident) * event.fraction))
        for address in rng.sample(resident, count):
            tree_buffer.invalidate(address)
        self.storm_invalidations += count

    # ------------------------------------------------------------------
    # queries billed by the timing model
    # ------------------------------------------------------------------

    def slowdown_factor(self, sou_id: int) -> float:
        """Slowdown multiplier on ``sou_id`` for the current batch."""
        return self.schedule.slowdown_factor(self.current_batch, sou_id)

    def bandwidth_factor(self) -> float:
        """HBM bandwidth multiplier for the current batch."""
        return self.schedule.bandwidth_factor(self.current_batch)

    def note_corrupted_hit(self, retry_cycles: int) -> None:
        """A corrupted shortcut survived validation retries (SOU hook)."""
        self.corrupted_hits += 1
        self.retry_cycles += retry_cycles

    def end_batch(
        self,
        batch_index: int,
        n_ops: int,
        batch_cycles: int,
        per_sou_cycles: Dict[int, int],
    ) -> None:
        """Arm the watchdog against the finished batch's cycle count."""
        self.watchdog.check(
            batch_index, n_ops, batch_cycles, per_sou_cycles,
            sorted(self.failed_sous),
        )

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Fault telemetry for ``RunResult.extra``."""
        return {
            "fault_events_applied": self.events_applied,
            "failed_sous": sorted(self.failed_sous),
            "shortcut_corruptions": self.shortcut_corruptions,
            "corrupted_shortcut_hits": self.corrupted_hits,
            "corrupted_retry_cycles": self.retry_cycles,
            "storm_invalidations": self.storm_invalidations,
            "crashes_armed": self.crashes_armed,
            "fault_schedule_signature": self.schedule.signature(),
        }
