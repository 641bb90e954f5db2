"""Tests for the Shortcut_Table and Bucket_Tables."""

import pytest

from repro.core.bucket_table import BucketTables
from repro.core.config import OP_RECORD_BYTES
from repro.core.prefixing import PrefixExtractor
from repro.core.shortcut_table import ShortcutTable
from repro.errors import ConfigError
from repro.workloads.ops import OpKind, Operation
from tests.opstreams import all_ids, stream_of


def op(i, first_byte, kind=OpKind.READ):
    return Operation(i, kind, bytes([first_byte, 1, 2, 3]))


class TestShortcutTable:
    def test_miss_then_generate_then_hit(self):
        table = ShortcutTable(buffer_bytes=4096)
        entry, on_chip = table.lookup(b"k1")
        assert entry is None
        table.generate(b"k1", target_address=0x100, parent_address=0x80)
        entry, on_chip = table.lookup(b"k1")
        assert entry.target_address == 0x100
        assert entry.parent_address == 0x80
        assert on_chip  # generate put it in the buffer

    def test_generated_vs_updated_counters(self):
        table = ShortcutTable(4096)
        table.generate(b"k1", 0x100, None)
        table.generate(b"k1", 0x200, None)
        assert table.generated == 1
        assert table.updated == 1
        assert table.lookup(b"k1")[0].target_address == 0x200

    def test_offchip_hit_promotes_to_buffer(self):
        # Tiny buffer: one entry fits; a second entry evicts the first.
        table = ShortcutTable(buffer_bytes=24)
        table.generate(b"k1", 0x100, None)
        table.generate(b"k2", 0x200, None)
        entry, on_chip = table.lookup(b"k1")
        assert entry is not None and not on_chip  # off-chip table hit
        entry, on_chip = table.lookup(b"k1")
        assert on_chip  # promoted by the previous probe

    def test_note_stale_removes_entry(self):
        table = ShortcutTable(4096)
        table.generate(b"k1", 0x100, None)
        table.note_stale(b"k1")
        assert table.stale_hits == 1
        assert table.lookup(b"k1")[0] is None

    def test_drop(self):
        table = ShortcutTable(4096)
        table.generate(b"k1", 0x100, None)
        table.drop(b"k1")
        assert len(table) == 0

    def test_len_counts_entries(self):
        table = ShortcutTable(4096)
        for i in range(5):
            table.generate(bytes([i]), i, None)
        assert len(table) == 5


def combine(tables, ops):
    """Combine the rows ``ops`` as one batch (renumbered by position)."""
    stream = stream_of(ops)
    tables.combine(stream, all_ids(stream))


class TestBucketTables:
    def make(self, n_buckets=16, buffer_bytes=1024):
        return BucketTables(PrefixExtractor(0, n_buckets), n_buckets, buffer_bytes)

    def test_combine_routes_by_prefix(self):
        tables = self.make(n_buckets=16)
        combine(tables, [op(0, 0x00), op(1, 0x10), op(2, 0x01), op(3, 0x00)])
        assert len(tables.buckets[0]) == 3  # 0x00 and 0x10 both -> bucket 0
        assert len(tables.buckets[1]) == 1
        assert tables.total_ops == 4

    def test_same_key_same_bucket(self):
        tables = self.make()
        combine(tables, [op(0, 0x67), op(1, 0x67, OpKind.WRITE)])
        assert len(tables.buckets[0x67 % 16]) == 2

    def test_clear_starts_new_batch(self):
        tables = self.make()
        combine(tables, [op(0, 1)])
        tables.clear()
        assert tables.total_ops == 0
        assert all(not bucket for bucket in tables.buckets)

    def test_spill_accounting(self):
        # Buffer fits 4 op records; combining 10 spills 6 records.
        tables = self.make(buffer_bytes=4 * OP_RECORD_BYTES)
        combine(tables, [op(i, i) for i in range(10)])
        assert tables.spilled_bytes == 6 * OP_RECORD_BYTES

    def test_no_spill_within_buffer(self):
        tables = self.make(buffer_bytes=1024)
        combine(tables, [op(i, i) for i in range(10)])
        assert tables.spilled_bytes == 0

    def test_occupancy_and_imbalance(self):
        tables = self.make(n_buckets=4)
        combine(tables, [op(i, 0) for i in range(6)] + [op(9, 1), op(10, 2)])
        assert tables.occupancy() == [6, 1, 1, 0]
        assert tables.imbalance == pytest.approx(6 / 2)
        assert tables.nonempty_buckets() == 3

    def test_imbalance_empty(self):
        assert self.make().imbalance == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            BucketTables(PrefixExtractor(), 0, 100)
        with pytest.raises(ConfigError):
            BucketTables(PrefixExtractor(), 16, 0)
