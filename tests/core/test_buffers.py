"""Tests for the on-chip buffers: LRU, value-aware, and LRU-node adapter."""

import pytest

from repro.core.lru_buffer import LruBuffer
from repro.core.tree_buffer import LruTreeBuffer, ValueAwareTreeBuffer
from repro.errors import ConfigError


class TestLruBuffer:
    def test_insert_then_lookup(self):
        buf = LruBuffer(100)
        buf.insert("a", 10)
        assert buf.lookup("a")
        assert not buf.lookup("b")
        assert buf.hits == 1 and buf.misses == 1

    def test_capacity_enforced(self):
        buf = LruBuffer(100)
        for name in "abcde":
            buf.insert(name, 25)
        assert buf.used_bytes <= 100
        assert buf.evictions >= 1
        assert "a" not in buf  # LRU victim

    def test_lookup_refreshes_recency(self):
        buf = LruBuffer(100)
        buf.insert("a", 50)
        buf.insert("b", 50)
        buf.lookup("a")
        buf.insert("c", 50)  # evicts b, not a
        assert "a" in buf and "b" not in buf

    def test_reinsert_updates_size(self):
        buf = LruBuffer(100)
        buf.insert("a", 10)
        buf.insert("a", 30)
        assert buf.used_bytes == 30
        assert len(buf) == 1

    def test_remove(self):
        buf = LruBuffer(100)
        buf.insert("a", 10)
        assert buf.remove("a")
        assert not buf.remove("a")
        assert buf.used_bytes == 0

    def test_oversized_entry_rejected(self):
        with pytest.raises(ConfigError):
            LruBuffer(100).insert("a", 101)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            LruBuffer(0)
        with pytest.raises(ConfigError):
            LruBuffer(100).insert("a", 0)

    def test_hit_rate(self):
        buf = LruBuffer(100)
        buf.insert("a", 10)
        buf.lookup("a")
        buf.lookup("b")
        assert buf.hit_rate == pytest.approx(0.5)
        assert LruBuffer(10).hit_rate == 0.0


def resident(buffer):
    return set(buffer.resident_addresses())


class TestValueAwareTreeBuffer:
    def test_admit_and_lookup(self):
        buf = ValueAwareTreeBuffer(1000)
        assert not buf.fetch(0x10, 100, value=5.0)  # miss admits
        assert buf.fetch(0x10, 100, value=5.0)  # then hits
        assert resident(buf) == {0x10}
        assert buf.hits == 1 and buf.misses == 1 and buf.used_bytes == 100

    def test_low_value_rejected_when_full(self):
        buf = ValueAwareTreeBuffer(200)
        buf.fetch(0x10, 100, value=10.0)
        buf.fetch(0x20, 100, value=10.0)
        # A strictly colder node must NOT displace the hot ones.
        assert not buf.fetch(0x30, 100, value=1.0)
        assert resident(buf) == {0x10, 0x20}
        assert buf.rejected_inserts == 1 and buf.evictions == 0

    def test_high_value_evicts_lowest(self):
        buf = ValueAwareTreeBuffer(200)
        buf.fetch(0x10, 100, value=1.0)
        buf.fetch(0x20, 100, value=10.0)
        buf.fetch(0x30, 100, value=5.0)
        assert resident(buf) == {0x20, 0x30}  # the lowest value went
        assert buf.evictions == 1

    def test_equal_value_evicts_least_recent(self):
        buf = ValueAwareTreeBuffer(200)
        buf.fetch(0x10, 100, value=5.0)
        buf.fetch(0x20, 100, value=5.0)
        buf.fetch(0x10, 100, value=5.0)  # hit: refresh
        buf.fetch(0x30, 100, value=5.0)
        assert resident(buf) == {0x10, 0x30}

    def test_hit_at_new_value_moves_node(self):
        buf = ValueAwareTreeBuffer(200)
        buf.fetch(0x10, 100, value=1.0)
        buf.fetch(0x20, 100, value=10.0)
        buf.fetch(0x10, 100, value=100.0)  # hit re-values 0x10
        buf.fetch(0x30, 100, value=50.0)
        assert resident(buf) == {0x10, 0x30}

    def test_decay_halves_values(self):
        # 8 decayed once is 4: a newcomer at 4 displaces it, one at 3.5
        # is colder and is rejected.
        buf = ValueAwareTreeBuffer(100)
        buf.fetch(0x10, 100, value=8.0)
        buf.decay(0.5)
        assert not buf.fetch(0x20, 100, value=3.5)
        assert resident(buf) == {0x10} and buf.rejected_inserts == 1
        buf.fetch(0x20, 100, value=4.0)
        assert resident(buf) == {0x20} and buf.evictions == 1

    def test_decay_lets_stale_entries_drain(self):
        buf = ValueAwareTreeBuffer(200)
        buf.fetch(0x10, 100, value=100.0)
        buf.fetch(0x20, 100, value=100.0)
        for _ in range(10):
            buf.decay(0.5)
        # Old "hot" entries have decayed below a modest newcomer.
        buf.fetch(0x30, 100, value=5.0)
        assert 0x30 in resident(buf)

    def test_decay_validates_factor(self):
        with pytest.raises(ConfigError):
            ValueAwareTreeBuffer(100).decay(0.0)
        ValueAwareTreeBuffer(100).decay(1.0)  # no-op allowed

    def test_invalidate(self):
        buf = ValueAwareTreeBuffer(1000)
        buf.fetch(0x10, 100, value=1.0)
        assert buf.invalidate(0x10)
        assert not buf.invalidate(0x10)
        assert buf.used_bytes == 0 and resident(buf) == set()
        assert not buf.fetch(0x10, 100, value=1.0)  # gone: a miss again

    def test_oversized_node_rejected(self):
        with pytest.raises(ConfigError):
            ValueAwareTreeBuffer(100).fetch(0x10, 101, 1.0)

    def test_hit_rate(self):
        buf = ValueAwareTreeBuffer(1000)
        buf.fetch(0x10, 100, 1.0)
        buf.fetch(0x10, 100, 1.0)
        assert buf.hit_rate == pytest.approx(0.5)

    def test_hot_set_survives_cold_scan(self):
        """The §III-E scenario: a cold burst must not flush hot nodes."""
        buf = ValueAwareTreeBuffer(10 * 64)
        hot = list(range(0, 5 * 1000, 1000))
        for addr in hot:
            buf.fetch(addr, 64, value=100.0)
        for i in range(100):  # cold scan of 100 distinct nodes
            buf.fetch(10_000 + i * 64, 64, value=1.0)
        assert set(hot) <= resident(buf)

    def test_lru_counterpart_thrashes_on_cold_scan(self):
        buf = LruTreeBuffer(10 * 64)
        hot = list(range(0, 5 * 1000, 1000))
        for addr in hot:
            buf.fetch(addr, 64, value=100.0)
        for i in range(100):
            buf.fetch(10_000 + i * 64, 64, value=1.0)
        assert not set(hot) & resident(buf)


class TestLruTreeBuffer:
    def test_interface_parity(self):
        buf = LruTreeBuffer(1000)
        assert not buf.fetch(0x10, 100, value=1.0)
        assert buf.fetch(0x10, 100, value=5.0)
        buf.decay(0.5)  # no-op
        assert buf.invalidate(0x10)
        assert not buf.invalidate(0x10)
        assert buf.hits == 1 and buf.misses == 1
        assert 0 <= buf.hit_rate <= 1
