"""Unit tests for the fault injector and the watchdog."""

import pytest

from repro.core.dispatcher import Dispatcher
from repro.core.shortcut_table import ShortcutTable
from repro.core.tree_buffer import ValueAwareTreeBuffer
from repro.errors import FaultError, WatchdogTimeout
from repro.faults import (
    BufferStorm,
    FaultInjector,
    FaultSchedule,
    ShortcutCorruption,
    SouFailStop,
    Watchdog,
)


def make_injector(events, seed=1, **kwargs):
    return FaultInjector(FaultSchedule(seed=seed, events=tuple(events)), **kwargs)


class TestFailStop:
    def test_fail_stop_marks_dispatcher(self):
        injector = make_injector([SouFailStop(0, 3), SouFailStop(2, 5)])
        dispatcher = Dispatcher(16)
        injector.start_batch(0, dispatcher, None, None)
        assert injector.failed_sous == {3}
        assert dispatcher.failed == {3}
        injector.start_batch(1, dispatcher, None, None)
        assert injector.failed_sous == {3}
        injector.start_batch(2, dispatcher, None, None)
        assert injector.failed_sous == {3, 5}
        assert injector.events_applied == 2

    def test_reset_rewinds_state(self):
        injector = make_injector([SouFailStop(0, 3)])
        dispatcher = Dispatcher(16)
        injector.start_batch(0, dispatcher, None, None)
        injector.reset()
        assert injector.failed_sous == set()
        assert injector.events_applied == 0


class TestShortcutCorruption:
    def _table_with_entries(self, n):
        table = ShortcutTable(64 * 1024)
        for i in range(n):
            table.generate(bytes([i, i]), target_address=100 + i, parent_address=50)
        return table

    def test_corruption_is_deterministic(self):
        victims = []
        for _ in range(2):
            table = self._table_with_entries(20)
            injector = make_injector([ShortcutCorruption(0, 5)], seed=9)
            injector.start_batch(0, None, table, None)
            victims.append(
                sorted(k for k in table.entry_keys()
                       if table.lookup(k)[0].corrupted)
            )
        assert victims[0] == victims[1]
        assert len(victims[0]) == 5

    def test_corrupted_entries_dangle(self):
        table = self._table_with_entries(4)
        injector = make_injector([ShortcutCorruption(0, 4)])
        injector.start_batch(0, None, table, None)
        for key in table.entry_keys():
            entry, _ = table.lookup(key)
            assert entry.corrupted
            assert entry.target_address < 0
        assert table.corrupted == 4
        assert injector.shortcut_corruptions == 4

    def test_corruption_capped_at_table_size(self):
        table = self._table_with_entries(3)
        injector = make_injector([ShortcutCorruption(0, 100)])
        injector.start_batch(0, None, table, None)
        assert injector.shortcut_corruptions == 3

    def test_empty_or_absent_table_is_noop(self):
        injector = make_injector([ShortcutCorruption(0, 5)])
        injector.start_batch(0, None, None, None)
        injector.start_batch(0, None, ShortcutTable(1024), None)
        assert injector.shortcut_corruptions == 0


class TestBufferStorm:
    def test_storm_invalidates_fraction(self):
        buffer = ValueAwareTreeBuffer(1 << 20)
        for address in range(100):
            buffer.fetch(address, 64, 1.0)
        injector = make_injector([BufferStorm(0, 0.5)])
        injector.start_batch(0, None, None, buffer)
        assert injector.storm_invalidations == 50
        assert len(buffer.resident_addresses()) == 50

    def test_full_storm_empties_buffer(self):
        buffer = ValueAwareTreeBuffer(1 << 20)
        for address in range(10):
            buffer.fetch(address, 64, 1.0)
        injector = make_injector([BufferStorm(0, 1.0)])
        injector.start_batch(0, None, None, buffer)
        assert buffer.resident_addresses() == []

    def test_storm_on_empty_buffer_is_noop(self):
        injector = make_injector([BufferStorm(0, 1.0)])
        injector.start_batch(0, None, None, ValueAwareTreeBuffer(1024))
        assert injector.storm_invalidations == 0


class TestWatchdog:
    def test_within_budget_passes(self):
        watchdog = Watchdog(max_cycles_per_op=100, floor_cycles=0)
        watchdog.check(0, 10, 999, {0: 999}, [])
        assert watchdog.fires == 0

    def test_over_budget_raises_with_diagnostics(self):
        watchdog = Watchdog(max_cycles_per_op=100, floor_cycles=0)
        with pytest.raises(WatchdogTimeout) as excinfo:
            watchdog.check(3, 10, 2_000, {0: 1_500, 5: 500}, [2])
        err = excinfo.value
        assert isinstance(err, FaultError)
        assert err.diagnostics["batch_index"] == 3
        assert err.diagnostics["budget_cycles"] == 1_000
        assert err.diagnostics["per_sou_cycles"] == {"0": 1500, "5": 500}
        assert err.diagnostics["failed_sous"] == [2]
        assert watchdog.fires == 1

    def test_floor_protects_tiny_batches(self):
        watchdog = Watchdog(max_cycles_per_op=1, floor_cycles=10_000)
        watchdog.check(0, 1, 9_999, {}, [])

    def test_injector_end_batch_delegates(self):
        injector = make_injector(
            [], watchdog=Watchdog(max_cycles_per_op=10, floor_cycles=0)
        )
        with pytest.raises(WatchdogTimeout):
            injector.end_batch(0, 1, 11, {0: 11})


class TestCrashFaults:
    def test_crash_armed_on_durability_manager(self, tmp_path):
        from repro.durability import DurabilityManager
        from repro.faults import CrashFault

        injector = make_injector([CrashFault(1, "wal-pre-commit", detail=3)])
        durability = DurabilityManager(str(tmp_path))
        injector.start_batch(0, Dispatcher(16), None, None, durability=durability)
        assert injector.crashes_armed == 0
        injector.start_batch(1, Dispatcher(16), None, None, durability=durability)
        assert injector.crashes_armed == 1
        assert durability._armed_point == "wal-pre-commit"
        assert injector.snapshot()["crashes_armed"] == 1

    def test_crash_skipped_without_durability(self):
        from repro.faults import CrashFault

        injector = make_injector([CrashFault(0, "ckpt-payload")])
        injector.start_batch(0, Dispatcher(16), None, None)
        assert injector.crashes_armed == 0
        assert injector.crashes_skipped == 1
        injector.reset()
        assert injector.crashes_skipped == 0


class TestSnapshot:
    def test_snapshot_round_trips_schedule_signature(self):
        schedule = FaultSchedule.fail_sous(2, seed=4)
        injector = FaultInjector(schedule)
        dispatcher = Dispatcher(16)
        injector.start_batch(0, dispatcher, None, None)
        snap = injector.snapshot()
        assert snap["fault_schedule_signature"] == schedule.signature()
        assert snap["failed_sous"] == sorted(injector.failed_sous)
        assert snap["fault_events_applied"] == 2
