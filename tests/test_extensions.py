"""Unit tests for the extension features: E-value annotation and idf
scoring."""

import numpy as np
import pytest

from repro.align.statistics import calibrate_gapped
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.search.coarse import CoarseRanker
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(111)
    return [
        Sequence(f"x{slot}", rng.integers(0, 4, 400, dtype=np.uint8))
        for slot in range(40)
    ]


@pytest.fixture(scope="module")
def index(collection):
    return build_index(collection, IndexParameters(interval_length=8))


@pytest.fixture(scope="module")
def source(collection):
    return MemorySequenceSource(collection)


class TestSignificanceAnnotation:
    def test_hits_carry_evalues(self, collection, index, source):
        from repro.align.scoring import ScoringScheme

        params = calibrate_gapped(ScoringScheme(), samples=25, seed=2)
        engine = PartitionedSearchEngine(
            index, source, coarse_cutoff=10, significance=params
        )
        query = collection[5].slice(100, 260)
        report = engine.search(query, top_k=5)
        assert all(hit.evalue is not None for hit in report.hits)
        # The exact self-match is overwhelmingly significant.
        assert report.best().evalue < 1e-10

    def test_evalues_ordered_inverse_to_scores(self, collection, index, source):
        from repro.align.scoring import ScoringScheme

        params = calibrate_gapped(ScoringScheme(), samples=25, seed=2)
        engine = PartitionedSearchEngine(
            index, source, coarse_cutoff=40, significance=params
        )
        report = engine.search(collection[7].slice(0, 200), top_k=10)
        evalues = [hit.evalue for hit in report.hits]
        assert evalues == sorted(evalues)

    def test_no_parameters_no_evalues(self, collection, index, source):
        engine = PartitionedSearchEngine(index, source, coarse_cutoff=10)
        report = engine.search(collection[3].slice(0, 150))
        assert all(hit.evalue is None for hit in report.hits)


class TestIdfScorer:
    def test_idf_downweights_ubiquitous_intervals(self):
        # Every sequence shares a poly-A prefix; only seq 0 shares the
        # distinctive suffix with the query.
        rng = np.random.default_rng(5)
        records = []
        for slot in range(10):
            codes = rng.integers(0, 4, 120, dtype=np.uint8)
            codes[:30] = 0
            records.append(Sequence(f"i{slot}", codes))
        index = build_index(records, IndexParameters(interval_length=6))
        query = np.concatenate(
            [np.zeros(30, dtype=np.uint8), records[0].codes[90:120]]
        )
        count_rank = CoarseRanker(index, "count").rank(query, cutoff=10)
        idf_rank = CoarseRanker(index, "idf").rank(query, cutoff=10)
        # Under idf, sequence 0's unique suffix dominates decisively.
        assert idf_rank[0].ordinal == 0
        idf_margin = idf_rank[0].coarse_score / idf_rank[1].coarse_score
        count_margin = count_rank[0].coarse_score / count_rank[1].coarse_score
        assert idf_margin > count_margin

    def test_engine_accepts_idf_by_name(self, collection, index, source):
        engine = PartitionedSearchEngine(
            index, source, coarse_scorer="idf", coarse_cutoff=10
        )
        query = collection[11].slice(50, 220)
        assert engine.search(query).best().ordinal == 11
