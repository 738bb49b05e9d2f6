"""Unit tests for the exhaustive Smith-Waterman scanner."""

import numpy as np
import pytest

from repro.align.kernel import best_local_score
from repro.align.scoring import ScoringScheme
from repro.errors import SearchError
from repro.index.store import MemorySequenceSource
from repro.search.exhaustive import ExhaustiveSearcher
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(51)
    return [
        Sequence(f"e{slot}", rng.integers(0, 4, 200, dtype=np.uint8))
        for slot in range(15)
    ]


@pytest.fixture(scope="module")
def searcher(records):
    return ExhaustiveSearcher(records)


class TestConstruction:
    def test_accepts_plain_lists_and_sources(self, records):
        by_list = ExhaustiveSearcher(records)
        by_source = ExhaustiveSearcher(MemorySequenceSource(records))
        query = records[0].codes[:50]
        assert by_list.scores(query).tolist() == by_source.scores(query).tolist()

    def test_empty_collection_rejected(self):
        with pytest.raises(SearchError):
            ExhaustiveSearcher([])


class TestScores:
    def test_scores_match_pairwise_alignment(self, searcher, records):
        query = records[4].codes[30:110]
        scores = searcher.scores(query)
        scheme = ScoringScheme()
        expected = [
            best_local_score(query, record.codes, scheme) for record in records
        ]
        assert scores.tolist() == expected

    def test_scores_indexed_by_ordinal(self, searcher, records):
        query = records[9].codes[:80]
        scores = searcher.scores(query)
        assert int(np.argmax(scores)) == 9

    def test_long_query_triggers_image_rebuild(self, records):
        searcher = ExhaustiveSearcher(records)
        searcher.scores(records[2].codes[:16])
        assert searcher._image.max_query_length == 16
        long_query = records[2].codes  # 200 bases > 16
        scores = searcher.scores(long_query)
        assert int(np.argmax(scores)) == 2
        assert searcher._image.max_query_length == 200
        # A shorter query reuses the image built for the longer one.
        image = searcher._image
        searcher.scores(records[2].codes[:100])
        assert searcher._image is image

    def test_sentinel_runs_sized_for_the_query(self, records):
        """The image is built lazily for the first query: a 150-base
        query pays sentinel runs for 150 bases, not for a fixed bound."""
        searcher = ExhaustiveSearcher(records)
        searcher.scores(records[5].codes[:150])
        image = searcher._image
        run = ScoringScheme().sentinel_run_length(150)
        assert image.max_query_length == 150
        assert image.codes.shape[0] == sum(
            len(record) for record in records
        ) + len(records) * run
        assert run < ScoringScheme().sentinel_run_length(2048)


class TestSearch:
    def test_examines_everything(self, searcher, records):
        report = searcher.search(records[0].codes[:60])
        assert report.candidates_examined == len(records)
        assert report.coarse_seconds == 0.0
        assert report.fine_seconds > 0.0

    def test_top_k_truncation_and_order(self, searcher, records):
        report = searcher.search(records[0].codes[:60], top_k=5)
        assert len(report.hits) <= 5
        scores = [hit.score for hit in report.hits]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_validation(self, searcher, records):
        with pytest.raises(SearchError):
            searcher.search(records[0].codes[:40], top_k=0)

    def test_min_score_excludes_weak_answers(self, records):
        strict = ExhaustiveSearcher(records, min_score=100)
        report = strict.search(records[3].codes[:60], top_k=15)
        assert all(hit.score >= 100 for hit in report.hits)

    def test_sequence_query_keeps_identifier(self, searcher, records):
        query = records[1].slice(0, 64)
        report = searcher.search(query)
        assert report.query_identifier == query.identifier

    def test_batch(self, searcher, records):
        queries = [records[0].slice(0, 64), records[1].slice(0, 64)]
        reports = searcher.search_batch(queries, top_k=3)
        assert [r.query_identifier for r in reports] == [
            q.identifier for q in queries
        ]

    def test_deterministic_tie_order_by_ordinal(self, records):
        # Two identical sequences must tie and order by ordinal.
        twins = [
            Sequence("t0", records[0].codes),
            Sequence("t1", records[0].codes),
        ]
        searcher = ExhaustiveSearcher(twins)
        report = searcher.search(records[0].codes[:50], top_k=2)
        assert [hit.ordinal for hit in report.hits] == [0, 1]
        assert report.hits[0].score == report.hits[1].score
