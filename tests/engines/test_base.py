"""Tests for the engine base: operation application and RunResult."""

import numpy as np
import pytest

from repro.art import AdaptiveRadixTree, encode_u64
from repro.engines.base import RunResult, TimeBreakdown, apply_operation
from repro.workloads import make_workload
from repro.workloads.ops import OpKind


@pytest.fixture
def tree():
    t = AdaptiveRadixTree()
    for i in range(32):
        t.insert(encode_u64(i), i)
    return t


class TestApplyOperation:
    def test_read_hit(self, tree):
        rec = apply_operation(tree, OpKind.READ, encode_u64(5))
        assert rec.outcome == "hit"
        assert rec.op_kind == "read"

    def test_read_miss_is_legal(self, tree):
        rec = apply_operation(tree, OpKind.READ, encode_u64(10**9))
        assert rec.outcome == "miss"
        assert rec.depth > 0  # the walk still happened

    def test_write_existing_updates(self, tree):
        rec = apply_operation(
            tree, OpKind.WRITE, encode_u64(5), value="new"
        )
        assert rec.outcome == "updated"
        assert tree.search(encode_u64(5)) == "new"

    def test_write_new_inserts(self, tree):
        rec = apply_operation(
            tree, OpKind.WRITE, encode_u64(10**9), value="v"
        )
        assert rec.outcome == "inserted"
        assert rec.structure_modified

    def test_delete_existing(self, tree):
        rec = apply_operation(tree, OpKind.DELETE, encode_u64(5))
        assert rec.outcome == "deleted"
        assert encode_u64(5) not in tree

    def test_delete_missing_is_noop(self, tree):
        rec = apply_operation(tree, OpKind.DELETE, encode_u64(10**9))
        assert rec.outcome == "miss"
        assert len(tree) == 32

    def test_scan(self, tree):
        rec = apply_operation(
            tree, OpKind.SCAN, encode_u64(0), scan_count=5
        )
        assert rec.depth > 0


class TestRunResult:
    def make(self, **kwargs):
        result = RunResult(engine="E", workload="W", platform="P", n_ops=100)
        for name, value in kwargs.items():
            setattr(result, name, value)
        return result

    def test_throughput(self):
        result = self.make(elapsed_seconds=0.01)
        assert result.throughput_mops == pytest.approx(0.01)

    def test_throughput_zero_time(self):
        assert self.make().throughput_mops == 0.0

    def test_redundancy(self):
        result = self.make(nodes_visited=100, distinct_nodes_visited=20)
        assert result.redundant_node_visits == 80
        assert result.redundancy_ratio == pytest.approx(0.8)

    def test_redundancy_empty(self):
        assert self.make().redundancy_ratio == 0.0

    def test_cacheline_utilisation(self):
        result = self.make(bytes_fetched=1000, bytes_used=200)
        assert result.cacheline_utilisation == pytest.approx(0.2)

    def test_latency_percentiles(self):
        result = self.make(latencies_ns=np.arange(1, 101, dtype=float) * 1000)
        assert result.p99_latency_us == pytest.approx(99.01, rel=0.01)
        assert result.latency_percentile_us(50) == pytest.approx(50.5, rel=0.01)

    def test_latency_empty(self):
        assert self.make().p99_latency_us == 0.0

    def test_sync_share(self):
        result = self.make(
            breakdown=TimeBreakdown(
                traverse_seconds=0.6, sync_seconds=0.3, other_seconds=0.1
            )
        )
        assert result.sync_share == pytest.approx(0.3)

    def test_summary_contains_engine_and_workload(self):
        text = self.make(elapsed_seconds=1.0).summary()
        assert "E" in text and "W" in text


class TestTimeBreakdown:
    def test_total_and_share(self):
        b = TimeBreakdown(1.0, 2.0, 1.0)
        assert b.total_seconds == 4.0
        assert b.share("sync") == pytest.approx(0.5)
        assert b.share("traverse") == pytest.approx(0.25)

    def test_empty_share(self):
        assert TimeBreakdown().share("sync") == 0.0


class TestBuildTree:
    def test_loads_all_keys(self):
        from repro.engines import ArtRowexEngine

        wl = make_workload("DE", n_keys=500, n_ops=10, seed=1)
        tree = ArtRowexEngine().build_tree(wl)
        assert len(tree) == len(wl.loaded_keys)
        tree.validate()
