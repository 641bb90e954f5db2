"""Cross-cutting edge cases and failure injection.

These integration tests exercise the paths unit tests rarely hit:
degenerate workloads (empty, single-op), degenerate hardware configs
(one SOU, more buckets than SOUs), and the guarantees the library makes
about determinism across process-level conditions.
"""

import pytest

from repro.core import DCARTConfig, DcartAccelerator
from repro.engines import (
    ArtRowexEngine,
    CuArtEngine,
    DcartCEngine,
    HeartEngine,
    OlcEngine,
    SmartEngine,
)
from repro.workloads import OperationStream, Workload, make_workload
from repro.workloads.ops import OpKind, Operation
from tests.digest import structure_digest

ALL_ENGINE_CLASSES = [
    ArtRowexEngine,
    HeartEngine,
    SmartEngine,
    CuArtEngine,
    DcartCEngine,
    OlcEngine,
    DcartAccelerator,
]


def empty_workload():
    return Workload(
        name="EMPTY",
        key_family="u64",
        loaded_keys=[b"\x00" * 8, b"\x00" * 7 + b"\x01"],
        operations=OperationStream([]),
        seed=0,
    )


def single_op_workload(kind=OpKind.READ):
    keys = [bytes([i, 0, 0, 0]) for i in range(8)]
    return Workload(
        name="ONE",
        key_family="u64",
        loaded_keys=keys,
        operations=OperationStream([Operation(0, kind, keys[3], value=9)]),
        seed=0,
    )


class TestDegenerateWorkloads:
    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_empty_operation_stream(self, engine_cls):
        result = engine_cls().run(empty_workload())
        assert result.n_ops == 0
        assert result.elapsed_seconds >= 0
        assert result.lock_contentions == 0
        assert result.partial_key_matches == 0

    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_single_read(self, engine_cls):
        result = engine_cls().run(single_op_workload())
        assert result.n_ops == 1
        assert result.elapsed_seconds > 0
        assert len(result.latencies_ns) == 1

    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_single_delete(self, engine_cls):
        result = engine_cls().run(single_op_workload(OpKind.DELETE))
        assert result.n_ops == 1

    def test_all_engines_agree_on_final_tree_state(self):
        """Every engine must leave the index in the same logical state."""
        wl = make_workload("DE", n_keys=400, n_ops=2000, seed=6)
        digests = set()
        for engine_cls in ALL_ENGINE_CLASSES:
            engine = engine_cls()
            tree = engine.build_tree(wl)
            engine.run(wl, tree=tree)
            digests.add(structure_digest(tree, include_values=True))
        assert len(digests) == 1


class TestDegenerateConfigs:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_workload("IPGEO", n_keys=1000, n_ops=5000, seed=8)

    def test_single_sou(self, workload):
        config = DCARTConfig(n_sous=1, n_buckets=1, batch_size=1024)
        result = DcartAccelerator(config=config).run(workload)
        assert result.n_ops == workload.n_ops

    def test_single_sou_slower_than_sixteen(self, workload):
        one = DcartAccelerator(
            config=DCARTConfig(n_sous=1, n_buckets=16, batch_size=1024)
        ).run(workload)
        sixteen = DcartAccelerator(
            config=DCARTConfig(n_sous=16, n_buckets=16, batch_size=1024)
        ).run(workload)
        assert one.elapsed_seconds > sixteen.elapsed_seconds

    def test_more_buckets_than_sous(self, workload):
        config = DCARTConfig(n_sous=4, n_buckets=16, batch_size=1024)
        result = DcartAccelerator(config=config).run(workload)
        assert result.n_ops == workload.n_ops

    def test_tiny_batches(self, workload):
        config = DCARTConfig(batch_size=64)
        result = DcartAccelerator(config=config).run(workload)
        assert result.n_ops == workload.n_ops
        assert result.extra["total_cycles"] > 0

    def test_batch_larger_than_stream(self, workload):
        config = DCARTConfig(batch_size=10**6)
        result = DcartAccelerator(config=config).run(workload)
        assert result.extra["hidden_pcu_cycles"] == 0  # one batch: no overlap


class TestDeterminismAcrossInstances:
    def test_fresh_engine_instances_agree(self):
        wl = make_workload("RS", n_keys=800, n_ops=4000, seed=11)
        first = [cls().run(wl).elapsed_seconds for cls in ALL_ENGINE_CLASSES]
        second = [cls().run(wl).elapsed_seconds for cls in ALL_ENGINE_CLASSES]
        assert first == second

    def test_workload_generation_is_pure(self):
        a = make_workload("EA", n_keys=300, n_ops=900, seed=12)
        b = make_workload("EA", n_keys=300, n_ops=900, seed=12)
        assert [op.key for op in a.operations] == [op.key for op in b.operations]

    def test_different_seeds_differ(self):
        a = make_workload("EA", n_keys=300, n_ops=900, seed=12)
        b = make_workload("EA", n_keys=300, n_ops=900, seed=13)
        assert [op.key for op in a.operations] != [op.key for op in b.operations]
