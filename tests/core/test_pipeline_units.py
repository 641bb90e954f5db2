"""Tests for the PCU, Dispatcher, batching/overlap, and DCARTConfig."""

import pytest

from repro.art.nodes import Node256
from repro.core.batching import overlap_timeline
from repro.core.bucket_table import BucketTables
from repro.core.config import DCARTConfig, OP_RECORD_BYTES
from repro.core.dispatcher import Dispatcher
from repro.core.pcu import PrefixCombiningUnit
from repro.core.prefixing import PrefixExtractor
from repro.errors import ConfigError, SimulationError
from repro.model.costs import FpgaCosts
from repro.workloads.ops import OpKind, Operation
from tests.opstreams import all_ids, stream_of


def ops(count, first_byte=0):
    return [
        Operation(i, OpKind.READ, bytes([first_byte, i % 251, 2, 3]))
        for i in range(count)
    ]


def batch(rows):
    """``(stream, ids)`` of the rows as one batch (renumbered by position)."""
    stream = stream_of(rows)
    return stream, all_ids(stream)


class TestConfig:
    def test_table1_defaults(self):
        config = DCARTConfig()
        assert config.n_sous == 16
        assert config.scan_buffer_bytes == 512 * 1024
        assert config.bucket_buffer_bytes == 2 * 1024 * 1024
        assert config.shortcut_buffer_bytes == 128 * 1024
        assert config.tree_buffer_bytes == 4 * 1024 * 1024
        assert config.costs.clock_hz == pytest.approx(230e6)

    def test_default_batch_from_scan_buffer(self):
        config = DCARTConfig()
        assert config.batch_size == 512 * 1024 // OP_RECORD_BYTES

    def test_shortcut_entries(self):
        assert DCARTConfig().shortcut_buffer_entries == 128 * 1024 // 24

    def test_describe_mentions_units(self):
        text = DCARTConfig().describe()
        assert "16 x SOUs" in text
        assert "230 MHz" in text

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            DCARTConfig(n_sous=0)
        with pytest.raises(ConfigError):
            DCARTConfig(n_sous=16, n_buckets=24)  # neither divides
        with pytest.raises(ConfigError):
            DCARTConfig(tree_buffer_bytes=0)
        # Smaller than the largest node: rejected when built, not when
        # the first Node256 is fetched mid-run.
        with pytest.raises(ConfigError, match="Node256 of 2064 B"):
            DCARTConfig(tree_buffer_bytes=2048)
        assert DCARTConfig(tree_buffer_bytes=Node256.size_bytes)
        with pytest.raises(ConfigError):
            DCARTConfig(batch_size=0)

    def test_buckets_may_exceed_sous(self):
        config = DCARTConfig(n_sous=8, n_buckets=16)
        assert config.n_buckets == 16


class TestPcu:
    def make(self, buffer_bytes=1 << 20):
        tables = BucketTables(PrefixExtractor(), 16, buffer_bytes)
        return PrefixCombiningUnit(tables, FpgaCosts())

    def test_one_cycle_per_op_plus_fill(self):
        pcu = self.make()
        outcome = pcu.combine_batch(*batch(ops(100)))
        assert outcome.cycles == 3 + 100
        assert outcome.spilled_bytes == 0

    def test_spill_adds_cycles(self):
        pcu = self.make(buffer_bytes=OP_RECORD_BYTES * 10)
        big = pcu.combine_batch(*batch(ops(100)))
        small = self.make().combine_batch(*batch(ops(100)))
        assert big.spilled_bytes == 90 * OP_RECORD_BYTES
        assert big.cycles > small.cycles

    def test_totals_accumulate(self):
        pcu = self.make()
        pcu.combine_batch(*batch(ops(10)))
        pcu.combine_batch(*batch(ops(20)))
        assert pcu.total_ops == 30
        assert pcu.total_cycles == 2 * 3 + 30

    def test_combining_is_functional(self):
        pcu = self.make()
        pcu.combine_batch(*batch(ops(32, first_byte=5)))
        assert len(pcu.tables.buckets[5]) == 32


class TestDispatcher:
    def test_static_assignment(self):
        tables = BucketTables(PrefixExtractor(), 16, 1 << 20)
        tables.combine(*batch(ops(10, first_byte=3) + ops(5, first_byte=0x13)))
        dispatched = Dispatcher(16).dispatch(tables)
        assert len(dispatched) == 1  # both prefixes -> bucket 3
        assert dispatched[0].sou_id == 3
        assert dispatched[0].n_ops == 15
        assert dispatched[0].value == 15

    def test_empty_buckets_skipped(self):
        tables = BucketTables(PrefixExtractor(), 16, 1 << 20)
        tables.combine(*batch(ops(4, first_byte=1)))
        dispatched = Dispatcher(16).dispatch(tables)
        assert [b.bucket_id for b in dispatched] == [1]

    def test_more_buckets_than_sous_wrap(self):
        tables = BucketTables(PrefixExtractor(n_buckets=16), 16, 1 << 20)
        for byte in range(16):
            tables.combine(*batch(ops(1, first_byte=byte)))
        dispatched = Dispatcher(4).dispatch(tables)
        sous = {b.sou_id for b in dispatched}
        assert sous == {0, 1, 2, 3}

    def test_per_sou_load(self):
        tables = BucketTables(PrefixExtractor(), 16, 1 << 20)
        tables.combine(*batch(ops(10, first_byte=0) + ops(6, first_byte=1)))
        dispatcher = Dispatcher(16)
        load = dispatcher.per_sou_load(dispatcher.dispatch(tables))
        assert load[0] == 10 and load[1] == 6

    def test_rejects_bad_sou_count(self):
        with pytest.raises(ConfigError):
            Dispatcher(0)


class TestOverlap:
    def test_overlap_hides_combining(self):
        # PCU 10 cycles per batch, SOU 100: all PCU after batch 0 hidden.
        timeline = overlap_timeline([10, 10, 10], [100, 100, 100])
        assert timeline.total_cycles == 10 + 100 + 100 + 100
        assert timeline.hidden_cycles == 20
        assert timeline.serial_cycles == 330

    def test_disabled_overlap_is_serial(self):
        timeline = overlap_timeline([10, 10], [100, 100], enabled=False)
        assert timeline.total_cycles == 220
        assert timeline.hidden_cycles == 0

    def test_pcu_bound_batches(self):
        # Combining slower than operating: SOU hides inside PCU instead.
        timeline = overlap_timeline([100, 100], [10, 10])
        assert timeline.total_cycles == 100 + 100 + 10

    def test_single_batch_no_overlap_possible(self):
        timeline = overlap_timeline([10], [50])
        assert timeline.total_cycles == 60
        assert timeline.hidden_cycles == 0

    def test_empty(self):
        assert overlap_timeline([], []).total_cycles == 0

    def test_batch_starts_monotone(self):
        timeline = overlap_timeline([10, 10, 10], [50, 50, 50])
        starts = timeline.batch_start_cycles
        assert starts == sorted(starts)
        assert starts[0] == 10

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            overlap_timeline([1], [1, 2])

    def test_overlap_efficiency(self):
        timeline = overlap_timeline([10, 10, 10], [100, 100, 100])
        assert timeline.overlap_efficiency == pytest.approx(20 / 30)
