"""Property-flavoured invariants of the search engines."""

import numpy as np
import pytest

from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.search.engine import PartitionedSearchEngine
from repro.search.exhaustive import ExhaustiveSearcher
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(121)
    records = [
        Sequence(f"pp{slot}", rng.integers(0, 4, 300, dtype=np.uint8))
        for slot in range(25)
    ]
    index = build_index(records, IndexParameters(interval_length=8))
    source = MemorySequenceSource(records)
    queries = [records[s].slice(40, 200) for s in (0, 6, 12, 18)]
    return records, index, source, queries


class TestTopKPrefixProperty:
    """top_k=j answers are a prefix of top_k=k answers for j < k."""

    def test_partitioned(self, setup):
        _, index, source, queries = setup
        engine = PartitionedSearchEngine(index, source, coarse_cutoff=15)
        for query in queries:
            small = engine.search(query, top_k=3).ordinals()
            large = engine.search(query, top_k=10).ordinals()
            assert large[: len(small)] == small

    def test_exhaustive(self, setup):
        records, _, _, queries = setup
        engine = ExhaustiveSearcher(records)
        for query in queries:
            small = engine.search(query, top_k=3).ordinals()
            large = engine.search(query, top_k=10).ordinals()
            assert large[: len(small)] == small


class TestDeterminism:
    def test_repeat_searches_identical(self, setup):
        _, index, source, queries = setup
        engine = PartitionedSearchEngine(index, source, coarse_cutoff=15)
        for query in queries:
            first = engine.search(query, top_k=10)
            second = engine.search(query, top_k=10)
            assert [(h.ordinal, h.score) for h in first.hits] == [
                (h.ordinal, h.score) for h in second.hits
            ]

    def test_two_engine_instances_agree(self, setup):
        _, index, source, queries = setup
        first_engine = PartitionedSearchEngine(index, source, coarse_cutoff=15)
        second_engine = PartitionedSearchEngine(index, source, coarse_cutoff=15)
        for query in queries:
            assert first_engine.search(query).ordinals() == (
                second_engine.search(query).ordinals()
            )


class TestCutoffMonotonicity:
    """A larger coarse cutoff can only add candidates, so the best
    answer's score never decreases."""

    def test_best_score_monotone_in_cutoff(self, setup):
        _, index, source, queries = setup
        for query in queries:
            previous_best = 0
            for cutoff in (1, 5, 15, 25):
                engine = PartitionedSearchEngine(
                    index, source, coarse_cutoff=cutoff
                )
                best = engine.search(query).best()
                score = best.score if best else 0
                assert score >= previous_best
                previous_best = score


class TestScoreSemantics:
    def test_scores_bounded_by_self_alignment(self, setup):
        _, index, source, queries = setup
        engine = PartitionedSearchEngine(index, source, coarse_cutoff=25)
        for query in queries:
            report = engine.search(query, top_k=25)
            bound = len(query) * engine.scheme.match
            assert all(0 < hit.score <= bound for hit in report.hits)

    def test_exhaustive_is_an_upper_bound_per_sequence(self, setup):
        records, index, source, queries = setup
        engine = PartitionedSearchEngine(index, source, coarse_cutoff=25)
        oracle = ExhaustiveSearcher(records)
        for query in queries:
            true_scores = oracle.scores(query)
            for hit in engine.search(query, top_k=25).hits:
                assert hit.score == int(true_scores[hit.ordinal])

    def test_frames_scores_never_exceed_full(self, setup):
        records, index, source, queries = setup
        framed = PartitionedSearchEngine(
            index, source, coarse_cutoff=25, fine_mode="frames"
        )
        oracle = ExhaustiveSearcher(records)
        for query in queries:
            true_scores = oracle.scores(query)
            for hit in framed.search(query, top_k=25).hits:
                assert hit.score <= int(true_scores[hit.ordinal])
