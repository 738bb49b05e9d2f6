"""Batch query evaluation and concurrent searches.

``search_batch`` must be a pure convenience: same reports as calling
``search`` per query, in query order.  One engine searched from many
threads at once must answer, and count, exactly as it does
sequentially.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.database import Database
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence

PARAMS = IndexParameters(interval_length=6)


def _records(count=24, length=200, seed=41):
    rng = np.random.default_rng(seed)
    return [
        Sequence(f"b{slot:03d}", rng.integers(0, 4, length, dtype=np.uint8))
        for slot in range(count)
    ]


def _queries(records, count=8, seed=13):
    rng = np.random.default_rng(seed)
    queries = []
    for number in range(count):
        source = records[int(rng.integers(0, len(records)))]
        start = int(rng.integers(0, len(source) - 90))
        queries.append(
            Sequence(f"q{number}", source.codes[start : start + 90].copy())
        )
    return queries


def _key(report):
    return (
        report.query_identifier,
        [(hit.ordinal, hit.score, hit.coarse_score) for hit in report.hits],
        report.candidates_examined,
    )


@pytest.fixture(scope="module")
def engine_and_queries():
    records = _records()
    engine = PartitionedSearchEngine(
        build_index(records, PARAMS),
        MemorySequenceSource(records),
        coarse_cutoff=10,
    )
    return engine, _queries(records)


class TestSearchBatch:
    def test_matches_per_query_search(self, engine_and_queries):
        engine, queries = engine_and_queries
        batch = engine.search_batch(queries, top_k=5)
        singles = [engine.search(query, top_k=5) for query in queries]
        assert [_key(report) for report in batch] == \
            [_key(report) for report in singles]

    def test_empty_batch(self, engine_and_queries):
        engine, _ = engine_and_queries
        assert engine.search_batch([]) == []

    def test_parallel_equals_sequential(self, engine_and_queries):
        engine, queries = engine_and_queries
        sequential = engine.search_batch(queries, top_k=5)
        parallel = _concurrent_searches(engine, queries, top_k=5)
        assert [_key(report) for report in sequential] == \
            [_key(report) for report in parallel]

    def test_reports_come_back_in_query_order(self, engine_and_queries):
        engine, queries = engine_and_queries
        batch = engine.search_batch(queries, top_k=3)
        assert [report.query_identifier for report in batch] == \
            [query.identifier for query in queries]

    def test_single_query_batch(self, engine_and_queries):
        engine, queries = engine_and_queries
        batch = engine.search_batch(queries[:1], top_k=5)
        assert len(batch) == 1
        assert _key(batch[0]) == _key(engine.search(queries[0], top_k=5))


class TestDatabaseSearchBatch:
    def test_sharded_database_batch_parity(self, tmp_path):
        records = _records()
        queries = _queries(records, count=5)
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=3
        ) as db:
            batch = db.search_batch(queries, top_k=5)
            singles = [db.search(query, top_k=5) for query in queries]
            assert [_key(report) for report in batch] == \
                [_key(report) for report in singles]


def _concurrent_searches(engine, queries, top_k):
    """``engine.search`` over ``queries`` from four threads at once,
    reports in query order."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(
            pool.map(lambda query: engine.search(query, top_k=top_k), queries)
        )


class TestBatchMetrics:
    """Concurrent searches must account for work exactly like a
    sequential batch: every instrument is mutation-locked."""

    COUNTERS = (
        "partitioned.queries",
        "partitioned.candidates",
        "store.records_fetched",
    )

    def _run(self, concurrent):
        from repro.instrumentation import Instruments

        records = _records()
        instruments = Instruments()
        engine = PartitionedSearchEngine(
            build_index(records, PARAMS),
            MemorySequenceSource(records),
            coarse_cutoff=10,
            instruments=instruments,
        )
        if concurrent:
            _concurrent_searches(engine, _queries(records), top_k=5)
        else:
            engine.search_batch(_queries(records), top_k=5)
        return instruments

    def test_parallel_counter_totals_match_sequential(self):
        sequential = self._run(concurrent=False)
        parallel = self._run(concurrent=True)
        for name in self.COUNTERS:
            assert parallel.metrics.counter_value(name) == \
                sequential.metrics.counter_value(name), name
        assert sequential.metrics.counter_value("batch.queries") == 8

    def test_batch_wall_seconds_observed_once(self):
        instruments = self._run(concurrent=False)
        summary = instruments.metrics.snapshot()["histograms"][
            "batch.wall_seconds"
        ]
        assert summary["count"] == 1
        assert summary["total"] > 0
