"""Alignment-score significance (Karlin-Altschul / Gumbel statistics).

Raw local-alignment scores are not comparable across queries or
collections; search tools report *E-values*: the number of alignments
of at least that score expected by chance,

    E = K * m * n * exp(-lambda * S)

for query length m and searched length n.  For ungapped scoring the
Karlin-Altschul parameter ``lambda`` is the root of

    sum_ij  p_i p_j exp(lambda * s(i, j)) = 1

which this module solves exactly; for gapped scoring no closed form
exists, so the parameters are calibrated empirically by fitting a
Gumbel distribution to the scores of random alignments — the same
procedure BLAST's published parameter tables come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.align.kernel import best_local_score
from repro.align.scoring import ScoringScheme
from repro.errors import AlignmentError

#: Euler-Mascheroni constant (method-of-moments Gumbel fit).
_EULER_GAMMA = 0.5772156649015329


def ungapped_lambda(
    scheme: ScoringScheme, gc_content: float = 0.5
) -> float:
    """The Karlin-Altschul lambda for ungapped match/mismatch scoring.

    Args:
        scheme: only ``match`` and ``mismatch`` are used.
        gc_content: background composition (A/T share ``1 - gc``).

    Returns:
        The unique positive root of the Karlin-Altschul equation.

    Raises:
        AlignmentError: if the expected pair score is non-negative
            (no positive root exists; local statistics break down).
    """
    if not 0.0 < gc_content < 1.0:
        raise AlignmentError(f"gc_content must lie in (0, 1), got {gc_content}")
    at_half = (1.0 - gc_content) / 2.0
    gc_half = gc_content / 2.0
    probabilities = np.array([at_half, gc_half, gc_half, at_half])
    match_mass = float((probabilities**2).sum())
    mismatch_mass = 1.0 - match_mass

    expected = match_mass * scheme.match + mismatch_mass * scheme.mismatch
    if expected >= 0.0:
        raise AlignmentError(
            "expected pair score must be negative for local-alignment "
            f"statistics, got {expected:.3f}"
        )

    def karlin_sum(lam: float) -> float:
        return (
            match_mass * math.exp(lam * scheme.match)
            + mismatch_mass * math.exp(lam * scheme.mismatch)
            - 1.0
        )

    low, high = 1e-9, 1.0
    while karlin_sum(high) < 0.0:
        high *= 2.0
        if high > 1e3:  # pragma: no cover - unreachable for valid schemes
            raise AlignmentError("failed to bracket lambda")
    for _ in range(100):
        middle = (low + high) / 2.0
        if karlin_sum(middle) < 0.0:
            low = middle
        else:
            high = middle
    return (low + high) / 2.0


@dataclass(frozen=True)
class GumbelParameters:
    """Fitted extreme-value parameters for one scoring configuration.

    Attributes:
        lam: the scale parameter (lambda).
        k: the Karlin-Altschul prefactor.
    """

    lam: float
    k: float

    def evalue(self, score: int, query_length: int, searched_length: int) -> float:
        """Expected chance alignments scoring >= ``score``."""
        return (
            self.k
            * query_length
            * searched_length
            * math.exp(-self.lam * score)
        )

    def pvalue(self, score: int, query_length: int, searched_length: int) -> float:
        """Probability of at least one chance alignment >= ``score``."""
        return -math.expm1(-self.evalue(score, query_length, searched_length))

    def bit_score(self, score: int) -> float:
        """The normalised (scheme-independent) score in bits."""
        return (self.lam * score - math.log(self.k)) / math.log(2.0)


def calibrate_gapped(
    scheme: ScoringScheme,
    query_length: int = 150,
    target_length: int = 600,
    samples: int = 60,
    gc_content: float = 0.5,
    seed: int = 0,
) -> GumbelParameters:
    """Fit Gumbel parameters for gapped scoring on random sequences.

    Aligns ``samples`` random query/target pairs and fits the score
    distribution by the method of moments:

        lambda = pi / (sigma * sqrt(6)),
        mu     = mean - gamma / lambda,
        K      = exp(lambda * mu) / (m * n).

    Raises:
        AlignmentError: if the sample is too small or degenerate.
    """
    if samples < 10:
        raise AlignmentError(f"need at least 10 samples, got {samples}")
    if query_length < 10 or target_length < 10:
        raise AlignmentError("calibration sequences must have >= 10 bases")
    rng = np.random.default_rng(seed)
    at_half = (1.0 - gc_content) / 2.0
    gc_half = gc_content / 2.0
    probabilities = [at_half, gc_half, gc_half, at_half]

    scores = np.empty(samples, dtype=np.float64)
    for sample in range(samples):
        query = rng.choice(4, size=query_length, p=probabilities).astype(
            np.uint8
        )
        target = rng.choice(4, size=target_length, p=probabilities).astype(
            np.uint8
        )
        scores[sample] = best_local_score(query, target, scheme)

    sigma = float(scores.std(ddof=1))
    if sigma <= 0.0:
        raise AlignmentError("degenerate calibration sample (zero variance)")
    lam = math.pi / (sigma * math.sqrt(6.0))
    mu = float(scores.mean()) - _EULER_GAMMA / lam
    k = math.exp(lam * mu) / (query_length * target_length)
    return GumbelParameters(lam=lam, k=k)
