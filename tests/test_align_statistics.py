"""Unit tests for alignment significance statistics."""

import math

import numpy as np
import pytest

from repro.align.statistics import (
    GumbelParameters,
    calibrate_gapped,
    ungapped_lambda,
)
from repro.align.scoring import ScoringScheme
from repro.errors import AlignmentError


class TestUngappedLambda:
    def test_closed_form_plus_one_minus_one(self):
        """For +1/-1 uniform composition: e^lambda = 3, exactly."""
        lam = ungapped_lambda(ScoringScheme(match=1, mismatch=-1))
        assert lam == pytest.approx(math.log(3.0), abs=1e-9)

    def test_karlin_equation_is_satisfied(self):
        scheme = ScoringScheme(match=2, mismatch=-3)
        lam = ungapped_lambda(scheme)
        total = 0.25 * math.exp(lam * 2) + 0.75 * math.exp(lam * -3)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_harsher_mismatch_raises_lambda(self):
        soft = ungapped_lambda(ScoringScheme(match=1, mismatch=-1))
        hard = ungapped_lambda(ScoringScheme(match=1, mismatch=-3))
        assert hard > soft

    def test_skewed_composition_changes_lambda(self):
        uniform = ungapped_lambda(ScoringScheme(), gc_content=0.5)
        skewed = ungapped_lambda(ScoringScheme(), gc_content=0.8)
        assert uniform != pytest.approx(skewed)

    def test_positive_expected_score_rejected(self):
        # match 3 / mismatch -1 under uniform composition: expectation 0.
        with pytest.raises(AlignmentError, match="negative"):
            ungapped_lambda(ScoringScheme(match=3, mismatch=-1))

    def test_gc_content_validation(self):
        with pytest.raises(AlignmentError):
            ungapped_lambda(ScoringScheme(), gc_content=0.0)


class TestGumbelParameters:
    def test_evalue_decreases_exponentially_in_score(self):
        params = GumbelParameters(lam=0.7, k=0.1)
        ratio = params.evalue(10, 100, 1000) / params.evalue(11, 100, 1000)
        assert ratio == pytest.approx(math.exp(0.7))

    def test_evalue_linear_in_search_space(self):
        params = GumbelParameters(lam=0.7, k=0.1)
        assert params.evalue(20, 100, 2000) == pytest.approx(
            2 * params.evalue(20, 100, 1000)
        )

    def test_pvalue_bounds(self):
        params = GumbelParameters(lam=0.7, k=0.1)
        assert 0.0 <= params.pvalue(40, 100, 1000) <= 1.0
        assert params.pvalue(1, 100, 10**6) == pytest.approx(1.0, abs=1e-3)

    def test_pvalue_close_to_evalue_when_small(self):
        params = GumbelParameters(lam=0.7, k=0.1)
        evalue = params.evalue(40, 100, 1000)
        assert params.pvalue(40, 100, 1000) == pytest.approx(evalue, rel=1e-2)

    def test_bit_score_is_monotone(self):
        params = GumbelParameters(lam=0.7, k=0.1)
        assert params.bit_score(30) > params.bit_score(20)


class TestCalibration:
    @pytest.fixture(scope="class")
    def params(self):
        return calibrate_gapped(
            ScoringScheme(), samples=50, query_length=100, target_length=400,
            seed=5,
        )

    def test_validation(self):
        with pytest.raises(AlignmentError):
            calibrate_gapped(ScoringScheme(), samples=5)
        with pytest.raises(AlignmentError):
            calibrate_gapped(ScoringScheme(), query_length=4)

    def test_parameters_are_positive(self, params):
        assert params.lam > 0
        assert params.k > 0

    def test_planted_match_is_significant(self, params):
        # A 150/150 exact match in a megabase collection.
        assert params.evalue(150, 150, 10**6) < 1e-6

    def test_chance_score_is_insignificant(self, params):
        """Scores at the level random alignments reach must get E-values
        no smaller than ~0.01 — the statistic separates signal from noise."""
        assert params.evalue(15, 150, 10**6) > 1e-2

    def test_deterministic_in_seed(self):
        first = calibrate_gapped(ScoringScheme(), samples=20, seed=3)
        second = calibrate_gapped(ScoringScheme(), samples=20, seed=3)
        assert first == second

    def test_lambda_below_ungapped_bound(self, params):
        """Gaps only add alignments, so gapped lambda cannot exceed the
        ungapped Karlin-Altschul lambda."""
        assert params.lam <= ungapped_lambda(ScoringScheme()) * 1.1

