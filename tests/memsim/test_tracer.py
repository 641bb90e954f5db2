"""Tests for reuse-distance tracing."""

import pytest

from repro.errors import ConfigError
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.tracer import INFINITE, ReuseDistanceTracer


def trace(lines):
    tracer = ReuseDistanceTracer()
    for line in lines:
        tracer.access(line * 64)
    return tracer


class TestDistances:
    def test_first_access_infinite(self):
        assert trace([1]).distances == [INFINITE]

    def test_immediate_reuse_distance_zero(self):
        assert trace([1, 1]).distances == [INFINITE, 0]

    def test_one_intervening_line(self):
        assert trace([1, 2, 1]).distances == [INFINITE, INFINITE, 1]

    def test_duplicate_intervening_counts_once(self):
        # 1, 2, 2, 1 -> only one distinct line between the 1s.
        assert trace([1, 2, 2, 1]).distances[-1] == 1

    def test_cyclic_pattern(self):
        tracer = trace([1, 2, 3, 1, 2, 3])
        assert tracer.distances[3:] == [2, 2, 2]

    def test_multi_line_access(self):
        tracer = ReuseDistanceTracer()
        tracer.access(0, size_bytes=130)  # lines 0,1,2
        assert tracer.n_accesses == 3
        assert tracer.n_distinct_lines == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReuseDistanceTracer(line_bytes=48)
        with pytest.raises(ConfigError):
            ReuseDistanceTracer().access(0, size_bytes=0)
        with pytest.raises(ConfigError):
            tiny = ReuseDistanceTracer(max_accesses=2)
            tiny.access(0)
            tiny.access(64)
            tiny.access(128)


class TestCapacityPlanning:
    def test_hit_rate_matches_lru_stack_property(self):
        # Cycle over 3 lines: capacity 3 hits everything after warmup,
        # capacity 2 hits nothing (classic LRU cliff).
        tracer = trace([1, 2, 3] * 10)
        assert tracer.hit_rate_for_capacity(3) == pytest.approx(27 / 30)
        assert tracer.hit_rate_for_capacity(2) == 0.0

    def test_agrees_with_fully_associative_simulator(self):
        import numpy as np

        rng = np.random.default_rng(3)
        lines = rng.integers(0, 40, size=2000).tolist()
        tracer = trace(lines)
        capacity = 16
        cache = SetAssociativeCache(
            capacity_bytes=capacity * 64, ways=capacity
        )  # 1 set x 16 ways = fully associative LRU
        for line in lines:
            cache.access(line * 64)
        assert tracer.hit_rate_for_capacity(capacity) == pytest.approx(
            cache.stats.hit_rate
        )

    def test_miss_ratio_curve_monotone(self):
        import numpy as np

        rng = np.random.default_rng(5)
        tracer = trace(rng.integers(0, 100, size=3000).tolist())
        curve = tracer.miss_ratio_curve([1, 4, 16, 64, 256])
        values = list(curve.values())
        assert values == sorted(values, reverse=True)

    def test_working_set(self):
        tracer = trace([1, 2, 3] * 10)
        assert tracer.working_set_lines(0.99) == 3

    def test_working_set_no_reuse(self):
        assert trace([1, 2, 3]).working_set_lines() == 0

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            trace([1]).hit_rate_for_capacity(0)
        with pytest.raises(ConfigError):
            trace([1]).working_set_lines(0.0)

    def test_empty_trace(self):
        assert ReuseDistanceTracer().hit_rate_for_capacity(8) == 0.0
