"""Metric and trace exporters: Prometheus text, Chrome trace events.

Round-trip property for the Prometheus exporter (what we emit must
parse back to the registry's values), structural validity for the
trace-event JSON (Perfetto's loader requires ``ph``/``ts``/``dur``
complete events), and one-span-per-shard coverage for the sharded
fan-out.
"""

import json

import numpy as np
import pytest

from repro.database import Database
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation import (
    Instruments,
    MetricsRegistry,
    Tracer,
    format_span_tree,
    metrics_json,
    parse_prometheus_text,
    prometheus_text,
    trace_event_json,
    trace_events,
    write_metrics,
    write_trace,
)
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence

PARAMS = IndexParameters(interval_length=6)


def _records(count=24, length=200, seed=41):
    rng = np.random.default_rng(seed)
    return [
        Sequence(f"x{slot:03d}", rng.integers(0, 4, length, dtype=np.uint8))
        for slot in range(count)
    ]


def _query(records, number=0, span=90):
    source = records[number]
    return Sequence(f"q{number}", source.codes[20 : 20 + span].copy())


@pytest.fixture()
def populated_registry():
    registry = MetricsRegistry()
    registry.count("queries", 7)
    registry.count("store.bytes_read", 123)
    registry.set_gauge("batch.workers", 4)
    histogram = registry.histogram("coarse_seconds")
    for value in (0.001, 0.004, 0.2):
        histogram.observe(value)
    return registry


class TestPrometheusExporter:
    def test_round_trip_counters_and_gauges(self, populated_registry):
        text = prometheus_text(populated_registry)
        families = parse_prometheus_text(text)
        assert families["repro_queries_total"][()] == 7
        assert families["repro_store_bytes_read_total"][()] == 123
        assert families["repro_batch_workers"][()] == 4

    def test_histogram_sum_count_and_cumulative_buckets(
        self, populated_registry
    ):
        families = parse_prometheus_text(
            prometheus_text(populated_registry)
        )
        assert families["repro_coarse_seconds_count"][()] == 3
        assert families["repro_coarse_seconds_sum"][()] == pytest.approx(
            0.205
        )
        buckets = families["repro_coarse_seconds_bucket"]
        inf_key = (("le", "+Inf"),)
        assert buckets[inf_key] == 3
        # Cumulative: every bucket's count <= the +Inf count, and the
        # counts are non-decreasing in bound order.
        bounds = sorted(
            (
                float(labels[0][1])
                for labels in buckets
                if labels[0][1] != "+Inf"
            )
        )
        counts = []
        for bound in bounds:
            for labels, value in buckets.items():
                if labels[0][1] != "+Inf" and float(labels[0][1]) == bound:
                    counts.append(value)
        assert counts == sorted(counts)
        assert all(count <= 3 for count in counts)

    def test_metric_names_are_sanitised(self):
        registry = MetricsRegistry()
        registry.count("batch.worker.search-batch_0.queries", 2)
        text = prometheus_text(registry)
        families = parse_prometheus_text(text)
        (name,) = families
        assert name == "repro_batch_worker_search_batch_0_queries_total"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not prometheus\n")

    def test_json_snapshot_envelope(self, populated_registry):
        document = metrics_json(populated_registry, meta={"queries": 7})
        assert document["schema"] == "repro.metrics/v1"
        assert document["meta"] == {"queries": 7}
        assert document["counters"]["queries"] == 7
        assert document["histograms"]["coarse_seconds"]["count"] == 3

    def test_write_metrics_picks_format_by_suffix(
        self, populated_registry, tmp_path
    ):
        json_path = write_metrics(
            populated_registry, tmp_path / "m.json", meta={}
        )
        prom_path = write_metrics(
            populated_registry, tmp_path / "m.prom", meta={}
        )
        loaded = json.loads(json_path.read_text())
        assert loaded["counters"]["queries"] == 7
        assert "repro_queries_total 7" in prom_path.read_text()


class TestTraceEvents:
    def test_events_have_required_fields(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as span:
                span.annotate("candidates", 3)
        events = trace_events(tracer)
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0
            assert {"name", "pid", "tid", "cat"} <= set(event)
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["args"] == {"candidates": 3}

    def test_document_is_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        target = write_trace(tracer, tmp_path / "t.json", meta={"n": 1})
        document = json.loads(target.read_text())
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"] == {"n": 1}

    def test_sharded_search_emits_one_span_per_shard(self, tmp_path):
        records = _records()
        instruments = Instruments()
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=3
        ) as db:
            db.set_instruments(instruments)
            db.search(_query(records), top_k=5)
        events = trace_events(instruments.tracer)
        coarse_shards = sorted(
            event["args"]["shard"]
            for event in events
            if event["name"].endswith(".coarse")
        )
        assert coarse_shards == [0, 1, 2]
        names = {event["name"] for event in events}
        assert {"search", "coarse", "merge", "fine"} <= names
        document = trace_event_json(instruments.tracer)
        json.loads(json.dumps(document))  # serialisable end to end
        merge = next(e for e in events if e["name"] == "merge")
        assert merge["args"]["shards_contributing"] >= 1


class TestFormatSpanTree:
    def test_depth_indentation_and_annotations(self):
        tracer = Tracer()
        with tracer.span("search"):
            with tracer.span("coarse") as span:
                span.annotate("candidates", 12)
        text = format_span_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("search")
        assert lines[1].startswith("  coarse")
        assert "[candidates=12]" in lines[1]
        assert "ms" in lines[0]

    def test_empty_tracer_formats_to_empty(self):
        assert format_span_tree(Tracer()) == ""

    def test_drop_count_is_reported(self):
        tracer = Tracer(max_roots=2)
        for number in range(5):
            with tracer.span(f"r{number}"):
                pass
        text = format_span_tree(tracer)
        assert "3 span tree(s) dropped" in text


class TestEngineTraceIntegration:
    def test_partitioned_search_trace_loads(self, tmp_path):
        records = _records()
        instruments = Instruments()
        engine = PartitionedSearchEngine(
            build_index(records, PARAMS),
            MemorySequenceSource(records),
            coarse_cutoff=10,
            instruments=instruments,
        )
        engine.search(_query(records), top_k=5)
        events = trace_events(instruments.tracer)
        assert {event["name"] for event in events} == {
            "search",
            "coarse",
            "shard[0].coarse",
            "merge",
            "fine",
            "shard[0].fine",
            "scan",
        }
        # Child spans nest inside the search span's time window.
        search = next(e for e in events if e["name"] == "search")
        for event in events:
            assert event["ts"] >= search["ts"] - 1e-6
            assert (
                event["ts"] + event["dur"]
                <= search["ts"] + search["dur"] + 1e-6
            )
