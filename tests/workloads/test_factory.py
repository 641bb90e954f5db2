"""Tests for workload assembly: mixes, histograms, the factory."""

import gc
import types

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    MIXES,
    OpKind,
    OperationStream,
    PrefixHistogram,
    WORKLOAD_NAMES,
    concentration,
    make_workload,
)
from repro.workloads.mixes import mix_for_write_ratio
from repro.workloads.ops import Operation


class TestMixes:
    def test_paper_mixes_defined(self):
        assert MIXES["A"].read_ratio == 1.0
        assert MIXES["C"].write_ratio == 0.5
        assert MIXES["E"].write_ratio == 1.0

    def test_ad_hoc_mix(self):
        mix = mix_for_write_ratio(0.25)
        assert mix.read_ratio == pytest.approx(0.75)

    def test_rejects_out_of_range(self):
        with pytest.raises(WorkloadError):
            mix_for_write_ratio(1.5)

    def test_rejects_inconsistent_mix(self):
        from repro.workloads.mixes import OperationMix

        with pytest.raises(WorkloadError):
            OperationMix("bad", read_ratio=0.6, write_ratio=0.6)


class TestFactory:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_builds_every_workload(self, name):
        wl = make_workload(name, n_keys=2000, n_ops=4000, seed=1)
        assert wl.name == name
        assert wl.n_keys == 1700  # load_fraction 0.85
        assert wl.n_ops == 4000
        assert wl.metadata["n_reserve"] == 300

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("YCSB-X")

    def test_mix_and_write_ratio_exclusive(self):
        with pytest.raises(WorkloadError):
            make_workload("DE", mix=MIXES["A"], write_ratio=0.5)

    def test_write_ratio_respected(self):
        wl = make_workload("DE", n_keys=2000, n_ops=10_000, write_ratio=0.25, seed=2)
        assert wl.operations.write_ratio == pytest.approx(0.25, abs=0.03)

    def test_pure_read_mix_has_no_writes(self):
        wl = make_workload("DE", n_keys=1000, n_ops=2000, mix=MIXES["A"])
        assert wl.operations.write_count == 0

    def test_deterministic_for_seed(self):
        a = make_workload("IPGEO", n_keys=1000, n_ops=2000, seed=5)
        b = make_workload("IPGEO", n_keys=1000, n_ops=2000, seed=5)
        assert [op.key for op in a.operations] == [op.key for op in b.operations]
        assert a.loaded_keys == b.loaded_keys

    def test_ops_address_loaded_or_reserve_keys(self):
        wl = make_workload("DICT", n_keys=1000, n_ops=3000, seed=3)
        universe = set(wl.loaded_keys)
        reserve_used = 0
        for op in wl.operations:
            if op.key not in universe:
                assert op.kind is OpKind.WRITE  # inserts only via writes
                reserve_used += 1
        assert reserve_used > 0

    def test_reads_carry_no_value(self):
        wl = make_workload("DE", n_keys=500, n_ops=1000, seed=1)
        for op in wl.operations:
            if op.kind is OpKind.READ:
                assert op.value is None

    def test_zipf_makes_keys_repeat(self):
        wl = make_workload("IPGEO", n_keys=5000, n_ops=20_000, seed=1)
        # Temporal similarity: far fewer distinct keys than operations.
        assert wl.operations.distinct_keys() < 0.5 * wl.n_ops

    def test_default_op_count(self):
        wl = make_workload("DE", n_keys=500)
        assert wl.n_ops == 1000

    def test_summary_mentions_name(self):
        assert "IPGEO" in make_workload("IPGEO", n_keys=200, n_ops=10).summary()

    @pytest.mark.parametrize("bad", [
        {"scan_ratio": 2.0},
        {"scan_ratio": -0.1},
        {"scan_length": 0},
        {"n_ops": -1},
        {"op_skew": -1.0},
        {"n_keys": 0},
        {"load_fraction": 0.0},
        {"insert_share_of_writes": 1.5},
        {"write_ratio": 1.5},
        {"name": "YCSB-X"},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_bad_argument_rejected_before_generating_keys(self, monkeypatch, bad):
        # Keys take seconds to generate at a million: a bad argument must
        # fail before the first draw.
        from repro.workloads import factory

        def no_keys(*args):
            raise AssertionError("keys generated before arguments were checked")

        monkeypatch.setattr(factory, "_generate_keys", no_keys)
        kwargs = {"name": "IPGEO", "n_keys": 1_000_000, **bad}
        with pytest.raises(WorkloadError):
            factory.make_workload(**kwargs)


class TestOperationStream:
    def ops(self, kinds):
        return OperationStream(
            [Operation(i, k, bytes([i % 256, 1, 2, 3])) for i, k in enumerate(kinds)]
        )

    def test_counts(self):
        stream = self.ops([OpKind.READ, OpKind.WRITE, OpKind.READ, OpKind.DELETE])
        assert stream.read_count == 2
        assert stream.write_count == 2
        assert stream.write_ratio == 0.5

    def test_batches(self):
        stream = self.ops([OpKind.READ] * 10)
        batches = list(stream.batches(4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert batches[0].tolist() == [0, 1, 2, 3]
        assert batches[2].tolist() == [8, 9]

    def test_batches_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            list(self.ops([OpKind.READ]).batches(0))

    def test_empty_stream_ratio(self):
        assert OperationStream([]).write_ratio == 0.0

    def test_rows_round_trip(self):
        rows = [
            Operation(0, OpKind.WRITE, b"a", value=7),
            Operation(1, OpKind.SCAN, b"b", scan_count=3),
            Operation(2, OpKind.DELETE, b"a"),
        ]
        stream = OperationStream(rows)
        assert list(stream) == rows
        assert list(OperationStream(iter(rows))) == rows
        assert list(OperationStream(tuple(rows))) == rows
        assert [stream[i] for i in range(3)] == rows
        assert stream[-1] == rows[-1]
        with pytest.raises(IndexError):
            stream[3]
        assert stream.distinct_keys() == 2

    def test_rows_carry_python_values(self):
        # numpy scalars would change the rows' repr (numpy 2 prints
        # np.int64(3)); rows must read as plain Python.
        stream = make_workload(
            "IPGEO", n_keys=200, n_ops=400, seed=3, scan_ratio=0.5
        ).operations
        for op in (stream[0], *stream):
            assert type(op.op_id) is int and type(op.scan_count) is int
            assert isinstance(op.kind, OpKind)
            assert type(op.key) is bytes
            assert op.value is None or type(op.value) is int

    def test_iteration_is_lazy(self):
        stream = self.ops([OpKind.READ] * 10)
        assert isinstance(iter(stream), types.GeneratorType)

    def test_op_id_must_be_position(self):
        with pytest.raises(WorkloadError, match="position"):
            OperationStream([Operation(1, OpKind.READ, b"k")])
        with pytest.raises(WorkloadError, match="position"):
            OperationStream([
                Operation(0, OpKind.READ, b"k"), Operation(0, OpKind.READ, b"k")
            ])

    def test_generated_write_value_is_its_op_id(self):
        wl = make_workload("RS", n_keys=300, n_ops=2_000, seed=5)
        writes = [op for op in wl.operations if op.kind is OpKind.WRITE]
        assert writes and all(op.value == op.op_id for op in writes)

    def test_generation_builds_no_object_per_op(self):
        # The stream is columns: generating it must not leave one
        # GC-tracked object per op behind.
        n_ops = 200_000
        gc.collect()
        before = len(gc.get_objects())
        workload = make_workload("IPGEO", n_keys=1_000, n_ops=n_ops)
        gc.collect()
        assert len(gc.get_objects()) - before < n_ops // 10
        assert workload.n_ops == n_ops


class TestHistogram:
    def test_from_operations_counts_first_byte(self):
        ops = [Operation(i, OpKind.READ, bytes([7, 0, 0, 0])) for i in range(5)]
        hist = PrefixHistogram.from_operations(OperationStream(ops))
        assert hist.counts[7] == 5
        assert hist.total == 5
        assert hist.hottest == (7, 5)

    def test_needs_256_bins(self):
        with pytest.raises(WorkloadError):
            PrefixHistogram([0] * 255)

    def test_ipgeo_histogram_matches_fig3(self):
        wl = make_workload("IPGEO", n_keys=5000, n_ops=30_000, seed=1)
        hist = PrefixHistogram.from_operations(wl.operations)
        assert hist.hottest[0] == 0x67
        assert hist.skew_ratio() > 5

    def test_top_share(self):
        counts = [0] * 256
        counts[1] = 90
        counts[2] = 10
        hist = PrefixHistogram([int(c) for c in counts])
        assert hist.top_share(1) == pytest.approx(0.9)

    def test_share_and_nonzero(self):
        counts = [0] * 256
        counts[3] = 4
        hist = PrefixHistogram(counts)
        assert hist.share(3) == 1.0
        assert hist.nonzero_prefixes == 1

    def test_empty_histogram(self):
        hist = PrefixHistogram([0] * 256)
        assert hist.top_share(5) == 0.0
        assert hist.share(0) == 0.0
        assert hist.skew_ratio() == 0.0


class TestConcentration:
    def test_uniform_counts(self):
        assert concentration([10] * 100, 0.05) == pytest.approx(0.05)

    def test_single_hot_item(self):
        counts = [1000] + [1] * 99
        assert concentration(counts, 0.01) > 0.9

    def test_rejects_bad_fraction(self):
        with pytest.raises(WorkloadError):
            concentration([1, 2], 0.0)

    def test_all_zero(self):
        assert concentration([0, 0, 0], 0.5) == 0.0
