"""Exporter round-trips (snapshot -> text -> parse -> equal values) and
seeded-determinism of full metric dumps."""

import json

import pytest

from repro.obs.export import (
    metrics_to_jsonl,
    metrics_to_prometheus,
    trace_to_jsonl,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("sim_link_offered_total", channel="0", direction="fwd").value = 17.0
    registry.counter("sim_link_offered_total", channel="1", direction="fwd").value = 3.0
    registry.gauge("sim_engine_queue_depth").set(4.5)
    hist = registry.histogram("sim_receiver_reconstruct_latency", buckets=(0.5, 1.0, 5.0), node="nodeB")
    for value in (0.2, 0.7, 0.7, 3.0, 9.0):
        hist.observe(value)
    return registry


class TestJsonlRoundTrip:
    def test_values_survive(self):
        snapshot = sample_registry().snapshot()
        text = metrics_to_jsonl(snapshot)
        parsed = [json.loads(line) for line in text.splitlines()]
        assert parsed == snapshot

    def test_empty_snapshot(self):
        assert metrics_to_jsonl([]) == ""


class TestPrometheus:
    def test_exposition_shape(self):
        text = metrics_to_prometheus(sample_registry().snapshot())
        assert '# TYPE sim_link_offered_total counter' in text
        assert 'sim_link_offered_total{channel="0",direction="fwd"} 17' in text
        assert '# TYPE sim_receiver_reconstruct_latency histogram' in text
        assert 'sim_receiver_reconstruct_latency_bucket{node="nodeB",le="+Inf"} 5' in text
        assert 'sim_receiver_reconstruct_latency_count{node="nodeB"} 5' in text
        # One TYPE line per metric name even across label sets.
        assert text.count("# TYPE sim_link_offered_total") == 1

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("sim_x_total", handler='say "hi"\\now').value = 1.0
        text = metrics_to_prometheus(registry.snapshot())
        assert 'handler="say \\"hi\\"\\\\now"' in text


class TestWriteMetrics:
    def test_suffix_dispatch(self, tmp_path):
        snapshot = sample_registry().snapshot()
        assert write_metrics(str(tmp_path / "m.jsonl"), snapshot) == "jsonl"
        assert write_metrics(str(tmp_path / "m.prom"), snapshot) == "prometheus"
        assert write_metrics(str(tmp_path / "m.unknown"), snapshot) == "jsonl"

    @pytest.mark.parametrize(
        "name,fmt",
        [
            ("m.prom", "prometheus"),
            ("m.txt", "prometheus"),
            ("M.PROM", "prometheus"),
            ("m.jsonl", "jsonl"),
            ("m.json", "jsonl"),
            ("m.csv", "jsonl"),
            ("metrics", "jsonl"),
        ],
    )
    def test_suffix_picks_the_text(self, tmp_path, name, fmt):
        snapshot = sample_registry().snapshot()
        render = metrics_to_prometheus if fmt == "prometheus" else metrics_to_jsonl
        assert write_metrics(str(tmp_path / name), snapshot) == fmt
        assert (tmp_path / name).read_text() == render(snapshot)


class TestTraceExport:
    def test_jsonl_lines(self):
        clock = {"now": 0.0}
        tracer = Tracer(lambda: clock["now"])
        tracer.event("fault_applied", action="link_down", channel=2)
        clock["now"] = 1.5
        tracer.event("share_tx", seq=9)
        text = trace_to_jsonl(tracer.events)
        lines = text.splitlines()
        assert len(lines) == 2
        assert '"name": "fault_applied"' in lines[0]
        assert '"time": 1.5' in lines[1]

    def test_empty(self):
        assert trace_to_jsonl([]) == ""
