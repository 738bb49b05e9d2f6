"""Unit tests for the partitioned search engine."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def setup(small_workload, small_index, small_source):
    collection, queries = small_workload
    engine = PartitionedSearchEngine(
        small_index, small_source, coarse_cutoff=20
    )
    return collection, queries, engine


class TestValidation:
    def test_cutoff_positive(self, small_index, small_source):
        with pytest.raises(SearchError):
            PartitionedSearchEngine(small_index, small_source, coarse_cutoff=0)

    def test_collection_agreement_checked(self, small_index):
        short_source = MemorySequenceSource(
            [Sequence.from_text("only", "ACGTACGT")]
        )
        with pytest.raises(SearchError, match="source holds"):
            PartitionedSearchEngine(small_index, short_source)

    def test_top_k_positive(self, setup):
        _, queries, engine = setup
        with pytest.raises(SearchError):
            engine.search(queries[0].query, top_k=0)

    def test_query_shorter_than_interval(self, setup):
        _, _, engine = setup
        with pytest.raises(SearchError, match="shorter than the interval"):
            engine.search(Sequence.from_text("tiny", "ACG"))


class TestSearch:
    def test_finds_query_source(self, setup):
        _, queries, engine = setup
        for case in queries:
            report = engine.search(case.query, top_k=5)
            assert report.best() is not None
            assert report.best().ordinal == case.source_ordinal

    def test_family_members_rank_highly(self, setup):
        _, queries, engine = setup
        for case in queries:
            report = engine.search(case.query, top_k=10)
            found = set(report.ordinals()) & case.relevant
            assert len(found) >= len(case.relevant) - 1

    def test_report_metadata(self, setup):
        _, queries, engine = setup
        report = engine.search(queries[0].query, top_k=4)
        assert report.query_identifier == queries[0].query.identifier
        assert len(report.hits) <= 4
        assert 0 < report.candidates_examined <= 20
        assert report.coarse_seconds >= 0.0
        assert report.fine_seconds >= 0.0
        assert report.total_seconds == pytest.approx(
            report.coarse_seconds + report.fine_seconds
        )

    def test_accepts_raw_code_arrays(self, setup):
        collection, _, engine = setup
        raw = collection.sequences[0].codes[:100]
        report = engine.search(np.asarray(raw))
        assert report.query_identifier == "query"
        assert report.best().ordinal == 0

    def test_hits_sorted_by_alignment_score(self, setup):
        _, queries, engine = setup
        report = engine.search(queries[1].query, top_k=10)
        scores = [hit.score for hit in report.hits]
        assert scores == sorted(scores, reverse=True)

    def test_search_batch_preserves_order(self, setup):
        _, queries, engine = setup
        reports = engine.search_batch([case.query for case in queries[:3]])
        assert [report.query_identifier for report in reports] == [
            case.query.identifier for case in queries[:3]
        ]

    def test_min_fine_score_filters_noise(self, small_index, small_source, setup):
        _, queries, _ = setup
        strict = PartitionedSearchEngine(
            small_index,
            small_source,
            coarse_cutoff=50,
            min_fine_score=100,
        )
        report = strict.search(queries[0].query, top_k=50)
        assert all(hit.score >= 100 for hit in report.hits)

    def test_cutoff_one_returns_at_most_one_candidate(self, small_index, small_source, setup):
        _, queries, _ = setup
        narrow = PartitionedSearchEngine(
            small_index, small_source, coarse_cutoff=1
        )
        report = narrow.search(queries[0].query)
        assert report.candidates_examined <= 1


class TestDifferentialParity:
    """One logical collection, three layouts, identical engine answers.

    The heavy lifting lives in the session-scoped ``parity_worlds``
    fixture (single index vs sharded vs incrementally-grown
    base+delta+tombstone database); here the single-engine fine modes
    must agree across all three.
    """

    @pytest.mark.parametrize("fine_mode", ["full", "frames"])
    def test_fine_modes_agree_across_layouts(self, parity_worlds, fine_mode):
        parity_worlds.check(fine_mode=fine_mode)

    def test_tight_cutoff_agrees_across_layouts(self, parity_worlds):
        parity_worlds.check(coarse_cutoff=8, top_k=5)
