"""ReplicaShard: WAL-frame shipping, lazy apply, catch-up."""

import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.cluster import ReplicaShard
from repro.durability.wal import encode_batch_frames
from repro.errors import SimulationError
from repro.model.costs import DEFAULT_CLUSTER_COSTS
from repro.workloads.ops import Operation, OpKind

CLOCK_HZ = 230e6


def _replica(seed=1, shard_id=0):
    return ReplicaShard(
        shard_id, AdaptiveRadixTree(), DEFAULT_CLUSTER_COSTS, CLOCK_HZ, seed
    )


def _writes(batch_index, pairs):
    ops = [
        Operation(op_id=i, kind=OpKind.WRITE, key=key, value=value)
        for i, (key, value) in enumerate(pairs)
    ]
    return encode_batch_frames(batch_index, ops), len(ops)


class TestShipping:
    def test_ship_is_commit_apply_is_lagged(self):
        replica = _replica()
        frames, n = _writes(0, [(b"alpha", 1), (b"beta", 2)])
        ready = replica.ship(0, frames, n, now_cycle=0)
        assert replica.shipped_through == 0
        assert replica.applied_through == -1
        assert replica.lag_batches() == 1
        # Not ready yet: nothing applies before the link delay elapses.
        assert replica.advance(0) == 0
        assert replica.advance(ready) == 2
        assert replica.applied_through == 0
        assert dict(replica.tree.items()) == {b"alpha": 1, b"beta": 2}

    def test_slowdown_stretches_the_lag(self):
        frames, n = _writes(0, [(b"k", 1)])
        fast = _replica().ship(0, frames, n, 0, slowdown=1.0)
        slow = _replica().ship(0, frames, n, 0, slowdown=8.0)
        assert slow > fast

    def test_stream_must_be_monotone(self):
        replica = _replica()
        frames, n = _writes(3, [(b"k", 1)])
        replica.ship(3, frames, n, 0)
        with pytest.raises(SimulationError):
            replica.ship(3, frames, n, 100)
        with pytest.raises(SimulationError):
            replica.ship(1, frames, n, 100)

    def test_sparse_batch_indices_allowed(self):
        # A shard only sees batches that routed ops to it.
        replica = _replica()
        for batch_index in (0, 2, 7):
            frames, n = _writes(batch_index, [(b"k%d" % batch_index, 1)])
            replica.ship(batch_index, frames, n, 0)
        assert replica.catch_up() == 3
        assert replica.applied_through == 7

    def test_groups_apply_in_ship_order(self):
        replica = _replica()
        for batch_index in range(4):
            frames, n = _writes(
                batch_index, [(b"key", batch_index)]
            )
            replica.ship(batch_index, frames, n, batch_index * 10)
        replica.advance(10**9)
        # Last writer wins only if order held.
        assert dict(replica.tree.items()) == {b"key": 3}
        assert replica.applied_through == 3


class TestCatchUp:
    def test_catch_up_drains_everything_now(self):
        replica = _replica()
        total = 0
        for batch_index in range(3):
            frames, n = _writes(
                batch_index, [(b"k%d" % batch_index, batch_index)]
            )
            replica.ship(batch_index, frames, n, 0)
            total += n
        assert replica.catch_up() == total
        assert replica.lag_batches() == 0
        assert replica.ops_applied == replica.ops_shipped == total

    def test_deletes_replay_tolerantly(self):
        replica = _replica()
        ops = [
            Operation(op_id=0, kind=OpKind.WRITE, key=b"k", value=9),
            Operation(op_id=1, kind=OpKind.DELETE, key=b"k"),
            Operation(op_id=2, kind=OpKind.DELETE, key=b"never-there"),
        ]
        frames = encode_batch_frames(0, ops)
        replica.ship(0, frames, 3, 0)
        replica.catch_up()
        assert dict(replica.tree.items()) == {}


class TestDeterminism:
    def test_same_seed_same_lag_schedule(self):
        readies_a, readies_b = [], []
        for sink in (readies_a, readies_b):
            replica = _replica(seed=5)
            for batch_index in range(6):
                frames, n = _writes(batch_index, [(b"x", batch_index)])
                sink.append(
                    replica.ship(batch_index, frames, n, batch_index * 1000)
                )
        assert readies_a == readies_b

    def test_different_shards_see_different_jitter(self):
        frames, n = _writes(0, [(b"x", 1)])
        readies = {
            _replica(seed=5, shard_id=s).ship(0, frames, n, 0)
            for s in range(8)
        }
        assert len(readies) > 1
