"""Unit tests for the metrics registry: counters, gauges, histograms."""

import math

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


class TestCounter:
    def test_cached_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("sim_x_total", channel="0")
        b = registry.counter("sim_x_total", channel="0")
        c = registry.counter("sim_x_total", channel="1")
        assert a is b
        assert a is not c

    def test_starts_at_zero_and_is_assigned(self):
        # Collectors copy the stats a component already keeps; there is
        # no increment path to keep in step with them.
        registry = MetricsRegistry()
        counter = registry.counter("sim_x_total", channel="0")
        assert counter.value == 0.0
        assert not hasattr(counter, "inc")
        counter.value = 7.0
        assert registry.snapshot() == [
            {"type": "counter", "name": "sim_x_total", "labels": {"channel": "0"}, "value": 7.0}
        ]

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        a = registry.counter("sim_x_total", channel=3)
        b = registry.counter("sim_x_total", channel="3")
        assert a is b


class TestGauge:
    def test_set_stores_a_float(self):
        gauge = MetricsRegistry().gauge("sim_depth")
        gauge.set(5)
        assert gauge.value == 5.0
        assert isinstance(gauge.value, float)


class TestNaming:
    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "Sim_X", "1abc", "with-dash", "dot.ted"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_same_name_different_type_is_distinct(self):
        registry = MetricsRegistry()
        registry.counter("sim_x")
        registry.gauge("sim_x")  # cached under a different kind key
        samples = registry.snapshot()
        assert [s["type"] for s in samples] == ["counter", "gauge"]


class TestHistogram:
    def test_bucketing_cumulative(self):
        hist = Histogram("sim_lat", {}, buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.7, 4.0, 100.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(107.7)
        assert hist.cumulative_buckets() == [
            (1.0, 1),
            (2.0, 3),
            (5.0, 4),
            (math.inf, 5),
        ]
        assert hist.minimum == 0.5
        assert hist.maximum == 100.0

    def test_boundary_value_lands_in_le_bucket(self):
        hist = Histogram("sim_lat", {}, buckets=(1.0, 2.0))
        hist.observe(1.0)  # le="1.0" is inclusive, Prometheus-style
        assert hist.cumulative_buckets()[0] == (1.0, 1)

    def test_empty_histogram_sample(self):
        hist = Histogram("sim_lat", {}, buckets=(1.0,))
        sample = hist.as_sample()
        assert sample["count"] == 0
        assert sample["min"] is None and sample["max"] is None

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("sim_lat", {}, buckets=())
        with pytest.raises(ValueError):
            Histogram("sim_lat", {}, buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("sim_lat", {}, buckets=(1.0, 1.0))


class TestSnapshot:
    def test_deterministic_ordering(self):
        registry = MetricsRegistry()
        registry.counter("sim_b_total").value = 1.0
        registry.counter("sim_a_total", z="2").value = 1.0
        registry.counter("sim_a_total", z="1").value = 1.0
        names = [(s["name"], s["labels"]) for s in registry.snapshot()]
        assert names == [
            ("sim_a_total", {"z": "1"}),
            ("sim_a_total", {"z": "2"}),
            ("sim_b_total", {}),
        ]

    def test_collectors_run_before_snapshot(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("sim_pull")
        state = {"v": 0}
        registry.register_collector(lambda: gauge.set(state["v"]))
        state["v"] = 42
        (sample,) = registry.snapshot()
        assert sample["value"] == 42.0
