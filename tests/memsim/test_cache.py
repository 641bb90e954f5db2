"""Tests for the set-associative LRU cache simulator."""

import pytest

from repro.errors import ConfigError
from repro.memsim.cache import SetAssociativeCache


def small_cache(ways=4, sets=4):
    return SetAssociativeCache(capacity_bytes=ways * sets * 64, ways=ways)


class TestConstruction:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(capacity_bytes=1000, ways=4)

    def test_geometry(self):
        cache = small_cache()
        assert cache.n_sets == 4


class TestBasicBehaviour:
    def test_first_access_misses_second_hits(self):
        cache = small_cache()
        assert cache.access(0) == (0, 1)
        assert cache.access(0) == (1, 0)

    def test_multi_line_object(self):
        cache = small_cache()
        hits, misses = cache.access(0, size_bytes=656)  # 11 lines
        assert (hits, misses) == (0, 11)

    def test_within_capacity_no_eviction(self):
        cache = small_cache()
        for i in range(16):  # exactly capacity lines
            cache.access(i * 64)
        for i in range(16):
            hits, misses = cache.access(i * 64)
            assert misses == 0
        assert cache.stats.evictions == 0

    def test_eviction_beyond_capacity(self):
        cache = small_cache()
        # 32 distinct lines into a 16-line cache must evict.
        for i in range(32):
            cache.access(i * 64)
        assert cache.stats.evictions == 16

    def test_contains(self):
        cache = small_cache()
        cache.access(0)
        assert cache.contains(0)
        assert cache.contains(63)
        assert not cache.contains(64)

    def test_stats_accumulate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)


class TestLruExactness:
    def test_evicts_least_recently_used(self):
        # Direct-map to one set: 4-way, 1 set.
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        for i in range(4):
            cache.access(i * 64)
        cache.access(0)  # refresh line 0
        cache.access(4 * 64)  # evicts line 1 (the LRU), not line 0
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_scan_thrashes(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        for _ in range(3):
            for i in range(5):  # working set one larger than capacity
                cache.access(i * 64)
        assert cache.stats.hit_rate == 0.0  # classic LRU scan pathology

