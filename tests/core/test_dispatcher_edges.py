"""Dispatcher edge cases: odd shapes, empty batches, failover routing."""

import pytest

from repro.core.bucket_table import BucketTables
from repro.core.dispatcher import Dispatcher
from repro.core.prefixing import PrefixExtractor
from repro.errors import ConfigError, SouFailedError
from repro.faults import FaultSchedule
from repro.workloads.ops import OpKind, Operation
from tests.opstreams import all_ids, stream_of


def make_tables(n_buckets=4, ops_per_bucket=(1, 0, 2, 3)):
    extractor = PrefixExtractor(n_buckets=n_buckets)
    tables = BucketTables(extractor, n_buckets, buffer_bytes=1 << 20)
    stream = stream_of(
        Operation(0, OpKind.READ, bytes([bucket_id, i]))
        for bucket_id, n_ops in enumerate(ops_per_bucket)
        for i in range(n_ops)
    )
    tables.combine(stream, all_ids(stream))
    return tables


class TestShapes:
    def test_more_sous_than_buckets(self):
        """n_sous > n_buckets: high SOUs legitimately sit idle."""
        dispatcher = Dispatcher(16)
        dispatched = dispatcher.dispatch(make_tables(n_buckets=4))
        assert {b.sou_id for b in dispatched} == {0, 2, 3}
        load = dispatcher.per_sou_load(dispatched)
        assert len(load) == 16
        assert sum(load) == 6
        assert all(load[s] == 0 for s in range(4, 16))

    def test_all_empty_batch(self):
        dispatcher = Dispatcher(16)
        dispatched = dispatcher.dispatch(make_tables(ops_per_bucket=(0, 0, 0, 0)))
        assert dispatched == []
        assert dispatcher.dispatched_buckets == 0
        assert dispatcher.per_sou_load(dispatched) == [0] * 16

    def test_single_sou_takes_everything(self):
        dispatcher = Dispatcher(1)
        dispatched = dispatcher.dispatch(make_tables())
        assert all(b.sou_id == 0 for b in dispatched)

    def test_zero_sous_rejected(self):
        with pytest.raises(ConfigError):
            Dispatcher(0)

    def test_value_estimate_is_bucket_size(self):
        dispatcher = Dispatcher(4)
        dispatched = dispatcher.dispatch(make_tables())
        assert {b.bucket_id: b.value for b in dispatched} == {0: 1, 2: 2, 3: 3}


class TestFailover:
    def test_route_skips_failed_to_next_survivor(self):
        dispatcher = Dispatcher(4)
        dispatcher.fail(1)
        assert dispatcher.route(1) == 2
        dispatcher.fail(2)
        assert dispatcher.route(1) == 3
        assert dispatcher.route(0) == 0  # healthy primaries untouched

    def test_route_wraps_around_ring(self):
        dispatcher = Dispatcher(4)
        dispatcher.fail(3)
        dispatcher.fail(0)
        assert dispatcher.route(3) == 1

    def test_all_failed_raises(self):
        dispatcher = Dispatcher(2)
        dispatcher.fail(0)
        dispatcher.fail(1)
        with pytest.raises(SouFailedError) as excinfo:
            dispatcher.route(0)
        assert excinfo.value.diagnostics["failed_sous"] == [0, 1]

    def test_fail_out_of_range_rejected(self):
        dispatcher = Dispatcher(4)
        with pytest.raises(ConfigError):
            dispatcher.fail(4)
        with pytest.raises(ConfigError):
            dispatcher.fail(-1)

    def test_whole_bucket_moves(self):
        """Lock-freedom: a bucket is never split across SOUs."""
        dispatcher = Dispatcher(4)
        dispatcher.fail(2)
        dispatched = dispatcher.dispatch(make_tables())
        by_bucket = {b.bucket_id: b for b in dispatched}
        assert by_bucket[2].sou_id == 3
        assert by_bucket[2].n_ops == 2
        assert dispatcher.failovers_last_batch == 1

    def test_failover_counter_resets_per_batch(self):
        dispatcher = Dispatcher(4)
        dispatcher.fail(0)
        dispatcher.dispatch(make_tables())
        first = dispatcher.failovers_last_batch
        dispatcher.dispatch(make_tables(ops_per_bucket=(0, 1, 0, 0)))
        assert first == 1
        assert dispatcher.failovers_last_batch == 0
        assert dispatcher.failovers == 1

    def test_deterministic_under_fixed_seed(self):
        """The same seeded schedule yields the same assignment, twice."""
        assignments = []
        for _ in range(2):
            dispatcher = Dispatcher(16)
            for event in FaultSchedule.fail_sous(5, seed=42):
                dispatcher.fail(event.sou_id)
            routes = [dispatcher.route(b) for b in range(64)]
            assignments.append((sorted(dispatcher.failed), routes))
        assert assignments[0] == assignments[1]
        failed, routes = assignments[0]
        assert not set(routes) & set(failed)
