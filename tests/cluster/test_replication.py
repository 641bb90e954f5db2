"""ReplicaShard: WAL-frame shipping, lazy apply, catch-up, replay on read."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.art.nodes import Leaf
from repro.art.tree import AdaptiveRadixTree
from repro.cluster import ClusterConfig, ClusterCoordinator, ReplicaShard
from repro.durability.wal import encode_batch_frames
from repro.engines.base import Engine
from repro.errors import SimulationError
from repro.harness.resilience import chaos_config
from repro.model.costs import DEFAULT_CLUSTER_COSTS
from repro.serve.simulator import ServeConfig, ServingSimulator
from repro.workloads import make_workload
from repro.workloads.ops import Operation, OpKind
from tests.opstreams import all_ids, stream_of
from tests.digest import structure_digest

CLOCK_HZ = 230e6


def _replica(seed=1, shard_id=0, build_tree=AdaptiveRadixTree):
    return ReplicaShard(
        shard_id, build_tree, DEFAULT_CLUSTER_COSTS, CLOCK_HZ, seed
    )


def _frames(batch_index, ops):
    """The shipped group of the rows ``ops`` (renumbered by position)."""
    stream = stream_of(ops)
    return encode_batch_frames(batch_index, stream, all_ids(stream))


def _writes(batch_index, pairs):
    ops = [
        Operation(op_id=i, kind=OpKind.WRITE, key=key, value=value)
        for i, (key, value) in enumerate(pairs)
    ]
    return _frames(batch_index, ops), len(ops)


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
        frames = _frames(0, ops)
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


# ---------------------------------------------------------------------------
# replay on read
# ---------------------------------------------------------------------------

#: Keys share prefixes so replays split, grow and shrink inner nodes.
KEY_POOL = [bytes([a, b, c]) for a in (1, 2) for b in (0, 7) for c in range(6)]
LOADED = KEY_POOL[::3]


def _loaded_tree():
    tree = AdaptiveRadixTree()
    for position, key in enumerate(LOADED):
        tree.insert(key, position)
    return tree


def _layout(tree):
    """Every node's kind, id and address in walk order."""
    nodes = []

    def walk(node):
        nodes.append((node.kind, node.node_id, node.address))
        if not isinstance(node, Leaf):
            for _, child in node.children_items():
                walk(child)

    if tree.root is not None:
        walk(tree.root)
    return nodes


def _image(replica):
    tree = replica.tree
    return (
        dict(tree.items()),
        structure_digest(tree, include_values=True),
        _layout(tree),
        tree.allocator.high_water_mark,
        replica.applied_through,
        replica.ops_applied,
        replica.lag_batches(),
    )


batch_ops = st.lists(
    st.tuples(
        st.sampled_from([OpKind.WRITE, OpKind.DELETE]),
        st.sampled_from(KEY_POOL),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=10,
)
#: Clock steps: some groups apply at the next advance, some wait.
steps = st.integers(min_value=0, max_value=3 * DEFAULT_CLUSTER_COSTS.link_latency_cycles)


@given(batches=st.lists(st.tuples(batch_ops, steps), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_replica_read_at_the_end_equals_one_read_after_every_advance(batches):
    at_end = _replica(seed=3, build_tree=_loaded_tree)
    every = _replica(seed=3, build_tree=_loaded_tree)
    reference = {key: position for position, key in enumerate(LOADED)}
    clock = 0
    op_id = 0
    for batch_index, (pairs, step) in enumerate(batches):
        ops = []
        for kind, key, value in pairs:
            ops.append(Operation(op_id=op_id, kind=kind, key=key, value=value))
            op_id += 1
            if kind is OpKind.WRITE:
                reference[key] = value
            else:
                reference.pop(key, None)  # absent keys too
        frames = _frames(batch_index, ops)
        for replica in (at_end, every):
            replica.ship(batch_index, frames, len(ops), clock)
        clock += step
        assert at_end.advance(clock) == every.advance(clock)
        every.tree  # replays what this advance applied
    assert _image(at_end) == _image(every)
    assert at_end.catch_up() == every.catch_up()
    assert _image(at_end) == _image(every)
    assert dict(at_end.tree.items()) == reference
    at_end.tree.validate()


def test_unread_replicas_build_no_tree(monkeypatch):
    calls = []
    build = Engine.build_tree

    def counting(self, workload):
        calls.append(workload.name)
        return build(self, workload)

    monkeypatch.setattr(Engine, "build_tree", counting)
    workload = make_workload("IPGEO", n_keys=500, n_ops=4_000, seed=7)
    cluster = ClusterConfig(n_shards=4, seed=7)
    coordinator = ClusterCoordinator(
        workload, cluster, accel_config=chaos_config(500, batch_size=512)
    )
    report = coordinator.run(batch_size=512)
    assert report["replication"]["ops_applied"] > 0
    assert len(calls) == cluster.n_shards  # one per primary
    ServingSimulator(
        workload, ServeConfig(batch_size=512), cluster_config=cluster
    ).capacity_ops_per_s()
    assert len(calls) == 2 * cluster.n_shards
    # Reading a replica builds its tree, once.
    replica = coordinator.shards[0].replica
    replica.catch_up()
    assert len(calls) == 2 * cluster.n_shards + 1
    replica.tree
    assert len(calls) == 2 * cluster.n_shards + 1


@given(position=st.integers(min_value=0), mask=st.integers(min_value=1, max_value=255),
       read=st.sampled_from(["catch_up", "tree"]))
@settings(max_examples=60, deadline=None)
def test_damaged_group_raises_at_the_read_that_replays_it(position, mask, read):
    replica = _replica()
    frames, n = _writes(0, [(b"alpha", 1)])
    replica.ship(0, frames, n, 0)
    frames, n = _writes(1, [(b"beta", 2), (b"gamma", 3)])
    damaged = bytearray(frames)
    damaged[position % len(damaged)] ^= mask
    replica.ship(1, bytes(damaged), n, 0)
    assert replica.advance(10**9) == 3  # applied as modelled, not replayed
    with pytest.raises(SimulationError):
        if read == "catch_up":
            replica.catch_up()
        else:
            replica.tree


def test_group_whose_op_count_differs_raises_at_replay():
    replica = _replica()
    frames, _ = _writes(0, [(b"alpha", 1), (b"beta", 2)])
    replica.ship(0, frames, 3, 0)
    assert replica.advance(10**9) == 3
    with pytest.raises(SimulationError, match="holds 2 ops, 3 were shipped"):
        replica.tree


def test_out_of_order_group_raises_at_advance():
    replica = _replica()
    for batch_index in (0, 1):
        frames, n = _writes(batch_index, [(b"k", batch_index)])
        replica.ship(batch_index, frames, n, 0)
    replica._inbox.rotate()  # batch 1 now ahead of batch 0
    with pytest.raises(SimulationError, match="out of order"):
        replica.advance(10**9)
