"""Tests for range-scan operation generation and execution."""

import pytest

from repro.engines import SmartEngine
from repro.engines.base import apply_operation
from repro.errors import WorkloadError
from repro.workloads import OpKind, make_workload


class TestScanGeneration:
    def test_default_has_no_scans(self):
        wl = make_workload("DE", n_keys=500, n_ops=2000, seed=1)
        assert all(op.kind is not OpKind.SCAN for op in wl.operations)

    def test_scan_ratio_respected(self):
        wl = make_workload("DE", n_keys=500, n_ops=4000, seed=1, scan_ratio=0.5)
        scans = sum(1 for op in wl.operations if op.kind is OpKind.SCAN)
        reads = sum(1 for op in wl.operations if op.kind is OpKind.READ)
        # Half of the reads become scans (of the ~50% read share).
        assert scans > 0.3 * (scans + reads)

    def test_scan_counts_bounded(self):
        wl = make_workload(
            "DE", n_keys=500, n_ops=2000, seed=1, scan_ratio=1.0, scan_length=25
        )
        for op in wl.operations:
            if op.kind is OpKind.SCAN:
                assert 1 <= op.scan_count <= 25

    def test_writes_unaffected_by_scan_ratio(self):
        wl = make_workload("DE", n_keys=500, n_ops=4000, seed=1, scan_ratio=1.0)
        assert wl.operations.write_ratio == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            make_workload("DE", n_keys=100, scan_ratio=1.5)
        with pytest.raises(WorkloadError):
            make_workload("DE", n_keys=100, scan_length=0)


class TestScanExecution:
    def test_scan_touches_many_nodes(self):
        from repro.art import AdaptiveRadixTree, encode_u64

        tree = AdaptiveRadixTree()
        for i in range(200):
            tree.insert(encode_u64(i), i)
        point = apply_operation(tree, OpKind.READ, encode_u64(0))
        scan = apply_operation(
            tree, OpKind.SCAN, encode_u64(0), scan_count=50
        )
        assert scan.depth > 3 * point.depth

    def test_engines_price_scan_workloads(self):
        wl = make_workload("DE", n_keys=500, n_ops=2000, seed=2, scan_ratio=0.3)
        result = SmartEngine().run(wl)
        assert result.elapsed_seconds > 0
        assert result.n_ops == 2000

    def test_scans_cost_more_than_reads(self):
        reads = make_workload("DE", n_keys=500, n_ops=2000, seed=2, write_ratio=0.0)
        scans = make_workload(
            "DE", n_keys=500, n_ops=2000, seed=2, write_ratio=0.0,
            scan_ratio=1.0, scan_length=50,
        )
        r_reads = SmartEngine().run(reads)
        r_scans = SmartEngine().run(scans)
        assert r_scans.elapsed_seconds > 2 * r_reads.elapsed_seconds

    def test_dcart_handles_scans_functionally(self):
        from repro.core import DCARTConfig, DcartAccelerator

        wl = make_workload("DE", n_keys=500, n_ops=2000, seed=2, scan_ratio=0.3)
        result = DcartAccelerator(config=DCARTConfig(batch_size=512)).run(wl)
        assert result.n_ops == 2000
        assert result.elapsed_seconds > 0
