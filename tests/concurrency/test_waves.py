"""Tests for the wave interleaving model."""

import pytest

from repro.concurrency.waves import ConflictGroup, WaveSimulator
from repro.errors import ConfigError


def sim(workers=4, window=8, penalty=100.0):
    return WaveSimulator(n_workers=workers, window=window, contention_penalty_ns=penalty)


def run(simulator, targets, is_write, cost_ns):
    """Run with each op's whole service inside its critical section."""
    return simulator.run(targets, is_write, cost_ns, cost_ns)


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"window": 0}, {"penalty": -1.0},
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ConfigError):
            sim(**kwargs)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            sim().run([1, 2], [True], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigError):
            sim().run([1, 2], [True, True], [1.0, 1.0], [1.0])


class TestNoConflicts:
    def test_distinct_targets_no_contention(self):
        report = run(sim(), [1, 2, 3, 4], [True] * 4, [100.0] * 4)
        assert report.contentions == 0
        assert report.serialization_seconds == 0.0
        assert report.parallel_seconds == pytest.approx(400 / 4 * 1e-9)

    def test_readers_on_same_node_do_not_conflict(self):
        # ROWEX: reads are lock-free.
        report = run(sim(), [7, 7, 7, 7], [False] * 4, [100.0] * 4)
        assert report.contentions == 0

    def test_empty_stream(self):
        report = run(sim(), [], [], [])
        assert report.n_ops == 0
        assert report.total_seconds == 0.0


class TestConflicts:
    def test_single_writer_plus_reader_conflicts(self):
        report = run(sim(), [7, 7], [True, False], [100.0, 100.0])
        assert report.contentions == 1
        assert report.conflicted_ops == 2

    def test_contentions_count_queue_length(self):
        # 5 writers on one node: 4 wait behind the first.
        report = run(sim(), [7] * 5, [True] * 5, [100.0] * 5)
        assert report.contentions == 4

    def test_serialization_dominates_window_time(self):
        # 8 ops in one window, 4 workers. All on one node, all writes:
        # serial = 8*100 + 7*100 penalty = 1500ns, but the queued waiters
        # spin: op i waits i * 200ns, 5600ns in all, which over 4 workers
        # adds 1400ns to the 200ns of compute.
        report = run(sim(), [7] * 8, [True] * 8, [100.0] * 8)
        assert report.window_seconds[0] == pytest.approx(1600e-9)
        assert report.serialization_seconds == pytest.approx((1600 - 200) * 1e-9)

    def test_conflicts_do_not_cross_windows(self):
        # Window=8: ops 0-7 and 8-15 are separate windows; same node in
        # different windows never conflicts.
        targets = [7] * 8 + [7] * 8
        report = run(sim(window=8), targets, [True] * 16, [1.0] * 16)
        assert report.n_windows == 2
        assert report.contentions == 2 * 7

    def test_larger_window_more_contention(self):
        targets = [7] * 16
        small = run(sim(window=4), targets, [True] * 16, [1.0] * 16)
        large = run(sim(window=16), targets, [True] * 16, [1.0] * 16)
        assert large.contentions > small.contentions

    def test_hot_node_stalls_window(self):
        # One hot group of 4 writes + 4 cheap distinct ops: window time is
        # the hot group's serial time even though workers are free.
        targets = [9, 9, 9, 9, 1, 2, 3, 4]
        report = run(sim(workers=8), targets, [True] * 8, [100.0] * 8)
        expected_serial = 4 * 100 + 3 * 100
        assert report.window_seconds[0] == pytest.approx(expected_serial * 1e-9)


class TestConflictGroups:
    def test_enumeration(self):
        group = ConflictGroup(node_id=1, op_indices=[0, 1, 3], writers=2)
        assert group.size == 3
        assert group.writers == 2
        assert group.is_conflicted
        assert group.contentions == 2

    def test_read_only_group_not_conflicted(self):
        group = ConflictGroup(node_id=1, op_indices=[0, 1], writers=0)
        assert not group.is_conflicted
        assert group.contentions == 0

    def test_single_writer_not_conflicted(self):
        group = ConflictGroup(node_id=1, op_indices=[0], writers=1)
        assert not group.is_conflicted
