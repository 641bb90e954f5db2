"""Unit tests for the MetricsRegistry."""

import pytest

from repro.errors import ConfigError
from repro.obs import EXTRA_VIEW, Histogram, MetricsRegistry, extra_view


class TestCounters:
    def test_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a.b", 3)
        registry.counter("a.b", 4)
        assert registry.get("a.b") == 7

    def test_zero_amount_registers(self):
        registry = MetricsRegistry()
        registry.counter("a.b", 0)
        assert "a.b" in registry
        assert registry.get("a.b") == 0

    def test_int_stays_int(self):
        # JSON/golden fidelity: counters must not drift to float.
        registry = MetricsRegistry()
        registry.counter("a", 5)
        assert type(registry.get("a")) is int


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g", 1.5)
        registry.gauge("g", 2.5)
        assert registry.get("g") == 2.5

    def test_value_type_preserved(self):
        registry = MetricsRegistry()
        registry.gauge("n", 7)
        assert type(registry.get("n")) is int


class TestHistograms:
    def test_summary_statistics(self):
        registry = MetricsRegistry()
        for value in (2, 8, 5):
            registry.observe("h", value)
        hist = registry.histogram("h")
        assert hist.count == 3
        assert hist.min_value == 2
        assert hist.max_value == 8
        assert hist.mean == pytest.approx(5.0)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_as_dict_keys(self):
        hist = Histogram()
        hist.observe(4)
        assert set(hist.as_dict()) == {"count", "total", "min", "max", "mean"}


class TestKindCollisions:
    def test_counter_then_gauge_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError):
            registry.gauge("x", 1.0)

    def test_gauge_then_histogram_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("x", 1.0)
        with pytest.raises(ConfigError):
            registry.observe("x", 1.0)

    def test_histogram_then_counter_rejected(self):
        registry = MetricsRegistry()
        registry.observe("x", 1.0)
        with pytest.raises(ConfigError):
            registry.counter("x")


class TestReaders:
    def test_len_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b", 0.0)
        registry.observe("c", 1)
        assert len(registry) == 3
        for name in ("a", "b", "c"):
            assert name in registry
        assert "missing" not in registry

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().get("nope")

    def test_as_dict_sorted_and_nested(self):
        registry = MetricsRegistry()
        registry.counter("z.late", 1)
        registry.counter("a.early", 2)
        registry.gauge("m.gauge", 0.5)
        doc = registry.as_dict()
        assert list(doc) == ["counters", "gauges", "histograms"]
        assert list(doc["counters"]) == ["a.early", "z.late"]
        assert doc["gauges"] == {"m.gauge": 0.5}


class TestExtraView:
    def test_view_reads_registry_values(self):
        registry = MetricsRegistry()
        for key, name in EXTRA_VIEW.items():
            registry.counter(name, 1)
        view = extra_view(registry)
        assert set(view) == set(EXTRA_VIEW)
        assert all(value == 1 for value in view.values())

    def test_view_requires_every_metric(self):
        # A partially-populated registry is a wiring bug, not a default.
        with pytest.raises(KeyError):
            extra_view(MetricsRegistry())
