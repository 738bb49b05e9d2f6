"""Unit and property tests for the effectiveness metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.eval.metrics import (
    average_precision,
    eleven_point_interpolated,
    mean_eleven_point,
    ranking_overlap,
    recall_at,
    recall_precision_points,
)

rankings = st.lists(st.integers(min_value=0, max_value=30), max_size=20,
                    unique=True)
relevant_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=10)


class TestRecallPrecision:
    def test_perfect_ranking(self):
        assert recall_at([1, 2, 3], {1, 2, 3}, 3) == 1.0

    def test_partial_recall(self):
        assert recall_at([1, 9, 2], {1, 2, 3, 4}, 3) == 0.5

    def test_cutoff_shorter_than_ranking(self):
        assert recall_at([1, 2, 3], {3}, 2) == 0.0

    def test_empty_relevant_set(self):
        assert recall_at([1, 2], set(), 2) == 0.0
        assert average_precision([1, 2], set()) == 0.0

    def test_empty_ranking(self):
        assert recall_at([], {1}, 5) == 0.0

    def test_cutoff_validation(self):
        with pytest.raises(ReproError):
            recall_at([1], {1}, 0)
        with pytest.raises(ReproError):
            recall_at([1], {1}, -3)

    @given(ranking=rankings, relevant=relevant_sets,
           cutoff=st.integers(min_value=1, max_value=25))
    def test_bounds(self, ranking, relevant, cutoff):
        assert 0.0 <= recall_at(ranking, relevant, cutoff) <= 1.0

    @given(ranking=rankings, relevant=relevant_sets)
    def test_recall_monotone_in_cutoff(self, ranking, relevant):
        values = [recall_at(ranking, relevant, c) for c in range(1, 22)]
        assert values == sorted(values)


class TestAveragePrecision:
    def test_all_relevant_first(self):
        assert average_precision([5, 6, 1, 2], {5, 6}) == 1.0

    def test_relevant_last(self):
        assert average_precision([9, 8, 1], {1}) == pytest.approx(1 / 3)

    def test_missing_relevant_items_penalised(self):
        assert average_precision([1], {1, 2}) == pytest.approx(0.5)

    @given(ranking=rankings, relevant=relevant_sets)
    def test_bounds(self, ranking, relevant):
        assert 0.0 <= average_precision(ranking, relevant) <= 1.0


class TestElevenPoint:
    def test_perfect_curve_is_all_ones(self):
        curve = eleven_point_interpolated([1, 2], {1, 2})
        assert curve == [1.0] * 11

    def test_no_relevant_found(self):
        assert eleven_point_interpolated([9, 8], {1}) == [0.0] * 11

    def test_interpolation_is_monotone_non_increasing(self):
        curve = eleven_point_interpolated([1, 9, 2, 8, 3], {1, 2, 3})
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    @given(ranking=rankings, relevant=relevant_sets)
    def test_curve_bounds_and_length(self, ranking, relevant):
        curve = eleven_point_interpolated(ranking, relevant)
        assert len(curve) == 11
        assert all(0.0 <= value <= 1.0 for value in curve)

    def test_points_are_recall_ordered(self):
        points = recall_precision_points([1, 9, 2], {1, 2})
        recalls = [recall for recall, _ in points]
        assert recalls == sorted(recalls)

    def test_mean_curves(self):
        mean = mean_eleven_point([[1.0] * 11, [0.0] * 11])
        assert mean == [0.5] * 11

    def test_mean_validation(self):
        with pytest.raises(ReproError):
            mean_eleven_point([])
        with pytest.raises(ReproError):
            mean_eleven_point([[1.0] * 10])


class TestRankingOverlap:
    def test_identical_rankings(self):
        assert ranking_overlap([1, 2, 3], [1, 2, 3], 3) == 1.0

    def test_disjoint_rankings(self):
        assert ranking_overlap([1, 2], [3, 4], 2) == 0.0

    def test_order_within_cutoff_ignored(self):
        assert ranking_overlap([1, 2], [2, 1], 2) == 1.0

    def test_empty_rankings_overlap_fully(self):
        assert ranking_overlap([], [], 5) == 1.0

    @given(first=rankings, second=rankings,
           cutoff=st.integers(min_value=1, max_value=20))
    def test_symmetry_and_bounds(self, first, second, cutoff):
        forward = ranking_overlap(first, second, cutoff)
        backward = ranking_overlap(second, first, cutoff)
        assert forward == backward
        assert 0.0 <= forward <= 1.0
