"""Size-or-deadline batch forming."""

import pytest

from repro.errors import ConfigError
from repro.serve.batcher import BatchFormer


class TestSizeClose:
    def test_batch_closes_when_full(self):
        former = BatchFormer(batch_size=3, deadline_cycles=1_000)
        assert former.offer(0, 10) is None
        assert former.offer(1, 20) is None
        batch = former.offer(2, 30)
        assert batch is not None
        assert batch.op_ids == [0, 1, 2]
        assert batch.arrival_cycles == [10, 20, 30]
        assert batch.close_cycle == 30
        assert not batch.closed_by_deadline
        assert former.pending == 0


class TestDeadlineClose:
    def test_poll_before_deadline_keeps_waiting(self):
        former = BatchFormer(batch_size=8, deadline_cycles=100)
        former.offer(0, 50)
        assert former.poll(149) is None
        assert former.pending == 1

    def test_poll_at_deadline_closes_at_the_deadline_cycle(self):
        former = BatchFormer(batch_size=8, deadline_cycles=100)
        former.offer(0, 50)
        former.offer(1, 60)
        batch = former.poll(175)
        assert batch is not None
        assert batch.close_cycle == 150  # first arrival + deadline, not now
        assert batch.closed_by_deadline
        assert former.pending == 0

    def test_deadline_counts_from_first_op(self):
        former = BatchFormer(batch_size=8, deadline_cycles=100)
        assert former.deadline_at is None
        former.offer(0, 40)
        assert former.deadline_at == 140
        former.offer(1, 90)
        assert former.deadline_at == 140  # later ops don't extend it


class TestFlush:
    def test_flush_empties_the_former(self):
        former = BatchFormer(batch_size=8, deadline_cycles=100)
        former.offer(0, 10)
        batch = former.flush(30)
        assert batch is not None and batch.op_ids == [0]
        assert batch.closed_by_deadline
        assert former.flush(40) is None  # nothing left

    def test_flush_close_cycle_never_precedes_last_arrival(self):
        former = BatchFormer(batch_size=8, deadline_cycles=100)
        former.offer(0, 10)
        former.offer(1, 95)
        batch = former.flush(20)  # stream "ended" before the last arrival
        assert batch.close_cycle >= 95


class TestValidation:
    def test_batch_size_positive(self):
        with pytest.raises(ConfigError):
            BatchFormer(batch_size=0, deadline_cycles=10)

    def test_deadline_positive(self):
        with pytest.raises(ConfigError):
            BatchFormer(batch_size=1, deadline_cycles=0)
