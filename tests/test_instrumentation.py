"""Unit and integration tests for the observability layer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation import (
    NULL_INSTRUMENTS,
    Instruments,
    MetricsRegistry,
    NullInstruments,
    ProfileSnapshot,
    Tracer,
    coalesce,
    profile_search,
)
from repro.instrumentation.metrics import NULL_METRICS, Histogram
from repro.instrumentation.tracing import _NULL_SPAN_CONTEXT
from repro.search.coarse import CoarseRanker
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(613)
    records = [
        Sequence(f"in{slot}", rng.integers(0, 4, 400, dtype=np.uint8))
        for slot in range(30)
    ]
    source = MemorySequenceSource(records)
    return records, source


def fresh_engine(records, source, **kwargs):
    index = build_index(records, IndexParameters(interval_length=8))
    return index, PartitionedSearchEngine(index, source, **kwargs)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a", 4)
        registry.count("b")
        assert registry.counter_value("a") == 5
        assert registry.counter_value("b") == 1
        assert registry.counter_value("missing") == 0

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.5)
        registry.set_gauge("g", 2.5)
        assert registry.snapshot()["gauges"]["g"] == 2.5

    def test_histogram_summary(self):
        histogram = Histogram("h")
        for value in (0.001, 0.002, 0.004, 0.008, 1.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["min"] == 0.001
        assert summary["max"] == 1.0
        assert summary["total"] == pytest.approx(1.015)
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert 0.001 <= summary["p50"] <= 1.0

    def test_histogram_percentile_within_bucket_accuracy(self):
        histogram = Histogram("h")
        for _ in range(100):
            histogram.observe(0.010)
        # All mass in one bucket: every percentile lands inside it
        # (bucket width is ~78%, interpolation clamps to observed range).
        assert histogram.percentile(50) == pytest.approx(0.010, rel=0.8)
        assert histogram.percentile(99) == pytest.approx(0.010, rel=0.8)

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e2), min_size=1, max_size=300
        )
    )
    def test_histogram_percentiles_ordered_and_near_exact(self, values):
        """min <= p50 <= p90 <= p99 <= max, each within one bucket ratio
        (10 ** 0.25) of the exact nearest-rank sample percentile."""
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        ordered = sorted(values)
        estimates = [histogram.percentile(q) for q in (50, 90, 99)]
        bounded = [ordered[0], *estimates, ordered[-1]]
        assert all(
            low <= high * (1 + 1e-12) for low, high in zip(bounded, bounded[1:])
        )
        ratio = 10 ** 0.25 * (1 + 1e-9)
        for q, estimate in zip((50, 90, 99), estimates):
            exact = ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
            assert exact / ratio <= estimate <= exact * ratio

    def test_histogram_percentiles_spread_inside_one_bucket(self):
        """The case `repro profile` printed p50 = p90 = p99 for."""
        histogram = Histogram("h")
        for value in np.linspace(0.0101, 0.0170, 200):
            histogram.observe(float(value))
        p50, p90, p99 = (histogram.percentile(q) for q in (50, 90, 99))
        assert p50 < p90 < p99
        assert p99 > histogram.mean

    def test_empty_histogram_is_safe(self):
        histogram = Histogram("h")
        assert histogram.percentile(50) == 0.0
        assert histogram.summary()["min"] == 0.0

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.count("c")
        registry.observe("t_seconds", 0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["histograms"]["t_seconds"]["count"] == 1
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("search"):
            with tracer.span("coarse"):
                pass
            with tracer.span("fine"):
                pass
        (root,) = tracer.span_tree()
        assert root["name"] == "search"
        assert [child["name"] for child in root["children"]] == [
            "coarse",
            "fine",
        ]
        assert root["seconds"] >= sum(
            child["seconds"] for child in root["children"]
        )

    def test_flat_reports_depths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        depths = {row["name"]: row["depth"] for row in tracer.flat()}
        assert depths == {"outer": 0, "inner": 1}

    def test_durations_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("op"):
                pass
        assert len(tracer.durations("op")) == 3
        assert all(seconds >= 0.0 for seconds in tracer.durations("op"))

    def test_root_bound(self):
        tracer = Tracer(max_roots=2)
        for slot in range(5):
            with tracer.span(f"r{slot}"):
                pass
        assert [root.name for root in tracer.roots] == ["r3", "r4"]

    def test_annotations_exported(self):
        tracer = Tracer()
        with tracer.span("search") as span:
            span.annotate("candidates", 7)
        assert tracer.span_tree()[0]["annotations"] == {"candidates": 7.0}


class TestNullInstruments:
    def test_disabled_flags(self):
        assert NULL_INSTRUMENTS.enabled is False
        assert NULL_INSTRUMENTS.metrics.enabled is False
        assert NULL_INSTRUMENTS.tracer.enabled is False
        assert Instruments().enabled is True

    def test_span_is_one_shared_object(self):
        """The disabled span path must not allocate per query."""
        first = NULL_INSTRUMENTS.span("a")
        second = NULL_INSTRUMENTS.span("b")
        assert first is second is _NULL_SPAN_CONTEXT

    def test_updates_allocate_no_registry_state(self):
        NULL_INSTRUMENTS.count("x", 3)
        NULL_INSTRUMENTS.set_gauge("y", 1.0)
        NULL_INSTRUMENTS.observe("z", 0.5)
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert NULL_INSTRUMENTS.tracer.span_tree() == []

    def test_coalesce(self):
        assert coalesce(None) is NULL_INSTRUMENTS
        real = Instruments()
        assert coalesce(real) is real

    def test_null_is_default_everywhere(self, workload):
        records, source = workload
        index, engine = fresh_engine(records, source)
        assert engine.instruments is NULL_INSTRUMENTS
        assert index.instruments is NULL_INSTRUMENTS
        assert source.instruments is NULL_INSTRUMENTS
        assert CoarseRanker(index).instruments is NULL_INSTRUMENTS

    def test_uninstrumented_search_stays_silent(self, workload):
        records, source = workload
        _, engine = fresh_engine(records, source)
        engine.search(records[3].slice(0, 160))
        assert NULL_METRICS.snapshot()["counters"] == {}


class TestEngineInstrumentation:
    def test_search_produces_nested_spans(self, workload):
        records, source = workload
        instruments = Instruments()
        _, engine = fresh_engine(records, source, instruments=instruments)
        engine.search(records[3].slice(0, 160))
        (root,) = instruments.tracer.span_tree()
        assert root["name"] == "search"
        assert [child["name"] for child in root["children"]] == [
            "coarse",
            "fine",
        ]

    def test_both_strands_produce_two_phase_pairs(self, workload):
        records, source = workload
        instruments = Instruments()
        _, engine = fresh_engine(
            records, source, instruments=instruments, both_strands=True
        )
        engine.search(records[3].slice(0, 160))
        (root,) = instruments.tracer.span_tree()
        assert [child["name"] for child in root["children"]] == [
            "coarse",
            "fine",
            "coarse",
            "fine",
        ]

    def test_query_counters_match_reports(self, workload):
        records, source = workload
        instruments = Instruments()
        _, engine = fresh_engine(records, source, instruments=instruments)
        reports = [
            engine.search(records[slot].slice(0, 160)) for slot in (1, 5, 9)
        ]
        counters = instruments.metrics.snapshot()["counters"]
        assert counters["partitioned.queries"] == 3
        assert counters["partitioned.candidates"] == sum(
            report.candidates_examined for report in reports
        )
        histograms = instruments.metrics.snapshot()["histograms"]
        assert histograms["partitioned.total_seconds"]["count"] == 3

    def test_store_counters_report_fetches(self, tmp_path, workload):
        from repro.index.store import read_store, write_store

        records, _ = workload
        path = tmp_path / "col.rpsq"
        write_store(records, path)
        instruments = Instruments()
        with read_store(path) as store:
            index = build_index(
                records, IndexParameters(interval_length=8)
            )
            engine = PartitionedSearchEngine(
                index, store, instruments=instruments
            )
            report = engine.search(records[3].slice(0, 160))
            counters = instruments.metrics.snapshot()["counters"]
            assert (
                counters["store.records_fetched"]
                == report.candidates_examined
            )
            assert counters["store.bytes_read"] > 0
            assert (
                counters["store.checksums_verified"]
                == report.candidates_examined
            )

    def test_set_instruments_detaches(self, workload):
        records, source = workload
        instruments = Instruments()
        index, engine = fresh_engine(
            records, source, instruments=instruments
        )
        engine.set_instruments(None)
        assert engine.instruments is NULL_INSTRUMENTS
        assert index.instruments is NULL_INSTRUMENTS
        engine.search(records[3].slice(0, 160))
        assert instruments.metrics.snapshot()["counters"] == {}


class TestProfiling:
    def test_profile_search_snapshot(self, workload):
        records, source = workload
        index = build_index(records, IndexParameters(interval_length=8))
        engine = PartitionedSearchEngine(index, source)
        queries = [records[slot].slice(0, 160) for slot in (1, 5)]
        snapshot = profile_search(engine, queries, top_k=5, repeat=2)
        assert snapshot.queries == 4
        assert snapshot.throughput_qps > 0
        assert snapshot.meta["engine"] == "PartitionedSearchEngine"
        assert "partitioned.total_seconds" in snapshot.phases
        phase = snapshot.phases["partitioned.total_seconds"]
        assert phase["count"] == 4
        assert phase["p50_ms"] <= phase["p99_ms"]

    def test_snapshot_json_round_trip(self, tmp_path, workload):
        records, source = workload
        _, engine = fresh_engine(records, source)
        snapshot = profile_search(
            engine, [records[1].slice(0, 160)], meta={"workload": "t"}
        )
        assert ProfileSnapshot.from_json(snapshot.to_json()) == snapshot
        path = snapshot.write(tmp_path / "BENCH_profile.json")
        assert ProfileSnapshot.load(path) == snapshot
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.profile/v1"
        assert data["meta"]["workload"] == "t"

    def test_describe_is_printable(self, workload):
        records, source = workload
        _, engine = fresh_engine(records, source)
        snapshot = profile_search(engine, [records[1].slice(0, 160)])
        text = snapshot.describe()
        assert "throughput" in text
        assert "quarantine" in text


class TestCliProfile:
    def test_synthetic_profile_writes_snapshot(self, tmp_path, capsys):
        target = tmp_path / "BENCH_profile.json"
        status = main(
            [
                "profile",
                "--families", "2",
                "--family-size", "2",
                "--background", "10",
                "--mean-length", "200",
                "--num-queries", "2",
                "--query-length", "80",
                "--repeat", "2",
                "-o", str(target),
            ]
        )
        assert status == 0
        snapshot = ProfileSnapshot.load(target)
        assert snapshot.queries == 4
        assert snapshot.meta["workload"] == "synthetic"
        assert "partitioned.coarse_seconds" in snapshot.phases
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_partial_paths_rejected(self, tmp_path, capsys):
        status = main(
            ["profile", "--index", str(tmp_path / "missing.idx")]
        )
        assert status == 1
        assert "together" in capsys.readouterr().err

    def test_search_stats_flag(self, tmp_path, capsys):
        from repro.index.storage import write_index
        from repro.index.store import write_store
        from repro.sequences.fasta import write_fasta

        rng = np.random.default_rng(77)
        records = [
            Sequence(f"s{slot}", rng.integers(0, 4, 300, dtype=np.uint8))
            for slot in range(12)
        ]
        index = build_index(records, IndexParameters(interval_length=8))
        write_index(index, tmp_path / "c.idx")
        write_store(records, tmp_path / "c.rpsq")
        write_fasta(
            [records[3].slice(0, 120)], tmp_path / "q.fasta"
        )
        status = main(
            [
                "search",
                str(tmp_path / "c.idx"),
                str(tmp_path / "c.rpsq"),
                str(tmp_path / "q.fasta"),
                "--stats",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "--- instrumentation ---" in out
        assert "counter partitioned.queries" in out


class TestThreadSafety:
    """The instruments must stay exact under concurrent mutation."""

    def test_counter_concurrent_increments_are_exact(self):
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def hammer():
            for _ in range(10_000):
                counter.add(1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("hits") == 80_000

    def test_histogram_concurrent_observations_are_exact(self):
        import threading

        registry = MetricsRegistry()
        histogram = registry.histogram("lat")

        def hammer():
            for _ in range(5_000):
                histogram.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        summary = registry.snapshot()["histograms"]["lat"]
        assert summary["count"] == 30_000
        assert summary["total"] == pytest.approx(30.0, rel=1e-6)

    def test_tracer_span_stacks_are_per_thread(self):
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(4)

        def one_tree(number):
            barrier.wait()
            with tracer.span(f"root{number}"):
                with tracer.span(f"child{number}"):
                    pass

        threads = [
            threading.Thread(target=one_tree, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.roots) == 4
        for root in tracer.roots:
            number = root.name.removeprefix("root")
            assert [child.name for child in root.children] == [
                f"child{number}"
            ]

    def test_tracer_drop_counter(self):
        tracer = Tracer(max_roots=2)
        for number in range(5):
            with tracer.span(f"r{number}"):
                pass
        assert tracer.dropped == 3
        assert [root.name for root in tracer.roots] == ["r3", "r4"]
        tracer.reset()
        assert tracer.dropped == 0
        assert tracer.roots == []
