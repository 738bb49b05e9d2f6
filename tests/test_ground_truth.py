"""Unit tests for the exhaustive-search oracle."""

import numpy as np
import pytest

from repro.eval.ground_truth import compute_ground_truth
from repro.search.exhaustive import ExhaustiveSearcher
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def oracle_setup():
    rng = np.random.default_rng(81)
    records = [
        Sequence(f"g{slot}", rng.integers(0, 4, 180, dtype=np.uint8))
        for slot in range(12)
    ]
    searcher = ExhaustiveSearcher(records)
    queries = [records[2].slice(10, 90), records[7].slice(40, 120)]
    truth = compute_ground_truth(searcher, queries)
    return records, searcher, queries, truth


class TestGroundTruth:
    def test_one_truth_per_query(self, oracle_setup):
        _, _, queries, truth = oracle_setup
        assert len(truth) == len(queries)
        assert truth[0].query_identifier == queries[0].identifier

    def test_scores_cover_collection(self, oracle_setup):
        records, _, _, truth = oracle_setup
        assert truth[0].scores.shape == (len(records),)

    def test_ranking_sorted_by_score(self, oracle_setup):
        _, _, _, truth = oracle_setup
        for entry in truth.truths:
            ranked_scores = entry.scores[entry.ranking]
            assert (np.diff(ranked_scores) <= 0).all()

    def test_ranking_contains_only_positive_scores(self, oracle_setup):
        _, _, _, truth = oracle_setup
        for entry in truth.truths:
            assert (entry.scores[entry.ranking] > 0).all()

    def test_source_sequence_ranks_first(self, oracle_setup):
        _, _, _, truth = oracle_setup
        assert truth[0].ranking[0] == 2
        assert truth[1].ranking[0] == 7

    def test_relevant_threshold(self, oracle_setup):
        _, _, _, truth = oracle_setup
        entry = truth[0]
        tight = entry.relevant(int(entry.scores.max()))
        loose = entry.relevant(1)
        assert tight == {2}
        assert tight <= loose

    def test_top_helper(self, oracle_setup):
        _, _, _, truth = oracle_setup
        assert truth[0].top(1) == [2]
        assert len(truth[0].top(100)) == truth[0].ranking.shape[0]

    def test_truth_matches_search_reports(self, oracle_setup):
        _, searcher, queries, truth = oracle_setup
        report = searcher.search(queries[0], top_k=5)
        assert report.ordinals() == truth[0].top(5)
