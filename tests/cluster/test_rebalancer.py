"""SkewRebalancer: plans from occupancy windows and bucket heat."""

import pytest

from repro.cluster import Partitioner, SkewRebalancer
from repro.cluster.rebalancer import shard_busy_cycles
from repro.core.sou import ShortcutOperatingUnit
from repro.errors import ConfigError
from repro.model.costs import DEFAULT_CLUSTER_COSTS, DEFAULT_FPGA_COSTS

COSTS = DEFAULT_CLUSTER_COSTS


def _rebalancer(n_shards=4, mode="range", threshold=1.5, max_moves=8):
    part = Partitioner(n_shards, mode=mode, n_buckets=16 * n_shards)
    return part, SkewRebalancer(
        part, COSTS, threshold=threshold, max_moves=max_moves
    )


class TestConstruction:
    def test_threshold_must_exceed_one(self):
        part = Partitioner(2)
        with pytest.raises(ConfigError):
            SkewRebalancer(part, COSTS, threshold=1.0)

    def test_max_moves_positive(self):
        part = Partitioner(2)
        with pytest.raises(ConfigError):
            SkewRebalancer(part, COSTS, max_moves=0)

    def test_load_vector_length_checked(self):
        _, rebalancer = _rebalancer(n_shards=4)
        with pytest.raises(ConfigError):
            rebalancer.plan([1, 2, 3])


class TestPlanning:
    def test_balanced_loads_plan_nothing(self):
        part, rebalancer = _rebalancer()
        for bucket in range(part.n_buckets):
            rebalancer.record_route(bucket, 10)
        assert rebalancer.plan([100, 100, 100, 100]) == []

    def test_idle_window_plans_nothing(self):
        _, rebalancer = _rebalancer()
        assert rebalancer.plan([0, 0, 0, 0]) == []

    def test_hot_shard_sheds_its_hottest_buckets_to_coldest(self):
        part, rebalancer = _rebalancer()
        hot_buckets = part.buckets_on(0)
        rebalancer.record_route(hot_buckets[3], 500)
        rebalancer.record_route(hot_buckets[5], 200)
        moves = rebalancer.plan([1000, 100, 100, 100])
        assert moves, "a 10x-hot shard must trigger moves"
        assert moves[0].bucket == hot_buckets[3]  # hottest first
        assert all(m.source == 0 for m in moves)
        targets = {m.target for m in moves}
        assert targets == {1} or targets == {2} or targets == {3}
        # Coldest = lowest load; ties broken low -> shard 1.
        assert targets == {1}

    def test_below_threshold_plans_nothing(self):
        part, rebalancer = _rebalancer(threshold=2.5)
        for bucket in part.buckets_on(0):
            rebalancer.record_route(bucket, 100)
        # 2x the mean < 2.5 threshold.
        assert rebalancer.plan([500, 250, 250, 250]) == []

    def test_max_moves_caps_the_round(self):
        part, rebalancer = _rebalancer(max_moves=2)
        for bucket in part.buckets_on(0):
            rebalancer.record_route(bucket, 100)
        moves = rebalancer.plan([10_000, 10, 10, 10])
        assert len(moves) <= 2

    def test_never_strips_the_hot_shard_bare(self):
        part = Partitioner(2, mode="range", n_buckets=2)
        rebalancer = SkewRebalancer(part, COSTS, max_moves=8)
        (bucket,) = part.buckets_on(0)
        rebalancer.record_route(bucket, 1000)
        assert rebalancer.plan([1000, 1]) == []

    def test_window_clears_after_every_plan(self):
        part, rebalancer = _rebalancer()
        rebalancer.record_route(part.buckets_on(0)[0], 500)
        rebalancer.plan([100, 100, 100, 100])  # balanced: no moves
        # The heat must not leak into the next round.
        moves = rebalancer.plan([1000, 10, 10, 10])
        assert moves == []

    def test_cold_buckets_never_move(self):
        part, rebalancer = _rebalancer()
        hot = part.buckets_on(0)[0]
        rebalancer.record_route(hot, 500)
        moves = rebalancer.plan([1000, 10, 10, 10])
        assert all(m.heat > 0 for m in moves)


def test_describe_reports_rounds_and_moves():
    part, rebalancer = _rebalancer()
    rebalancer.record_route(part.buckets_on(0)[0], 500)
    rebalancer.plan([1000, 10, 10, 10])
    text = rebalancer.describe()
    assert "1 rounds" in text and "threshold 1.5x" in text


def test_shard_busy_cycles_counts_each_unit_once():
    sous = []
    for sou_id, busy in enumerate((100, 200, 300)):
        sou = ShortcutOperatingUnit(
            sou_id, tree=None, shortcuts=None, tree_buffer=None,
            costs=DEFAULT_FPGA_COSTS, shared_depth_bytes=1,
        )
        sou.busy_cycles = busy
        sous.append(sou)
    assert shard_busy_cycles(sous) == 600
