"""Alignment scoring schemes.

Nucleotide local alignment in the paper's era used simple
match/mismatch scores with a linear gap penalty; that scheme is what
every search engine in this package shares, so the partitioned and
exhaustive engines are directly comparable.  An affine (Gotoh) scheme
is provided for the reference aligner as an extension.

Wildcards never match anything — including themselves — which is the
conservative treatment for uncalled bases.  A *sentinel* code far
outside the alphabet carries a score so negative that no alignment can
cross it; the exhaustive scanner uses runs of sentinels to separate
concatenated sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.sequences.alphabet import NUM_BASES, WILDCARD_MIN_CODE

#: Code used to separate sequences in concatenated scans.  Outside the
#: IUPAC range, so it can never appear in real data.
SENTINEL_CODE = 200

#: Score assigned to any pairing that involves a sentinel.  Deadly but
#: far from the int32 boundary, so row arithmetic cannot overflow.
SENTINEL_SCORE = -(1 << 24)


@dataclass(frozen=True)
class ScoringScheme:
    """Match/mismatch/linear-gap local alignment scores.

    Attributes:
        match: score for an identical base pair (> 0).
        mismatch: score for a differing pair (< 0).
        gap: per-base insertion/deletion penalty (< 0).
        transition: optional milder score for transition mismatches
            (A<->G, C<->T), which occur far more often in real
            evolution than transversions.  ``None`` scores every
            mismatch alike.
    """

    match: int = 1
    mismatch: int = -1
    gap: int = -2
    transition: int | None = None

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise AlignmentError(f"match score must be positive, got {self.match}")
        if self.mismatch >= 0:
            raise AlignmentError(
                f"mismatch score must be negative, got {self.mismatch}"
            )
        if self.gap >= 0:
            raise AlignmentError(f"gap penalty must be negative, got {self.gap}")
        if self.transition is not None and not (
            self.mismatch <= self.transition < self.match
        ):
            raise AlignmentError(
                f"transition score must lie in [{self.mismatch}, "
                f"{self.match}), got {self.transition}"
            )

    def _is_transition(self, first: int, second: int) -> bool:
        # Purines (A=0, G=2) share even codes; pyrimidines (C=1, T=3)
        # share odd codes — a differing same-parity pair is a transition.
        return first != second and (first & 1) == (second & 1)

    def score_pair(self, first: int, second: int) -> int:
        """Score one pair of codes (wildcards and sentinels included)."""
        if first == SENTINEL_CODE or second == SENTINEL_CODE:
            return SENTINEL_SCORE
        if first >= WILDCARD_MIN_CODE or second >= WILDCARD_MIN_CODE:
            return self.mismatch
        if first == second:
            return self.match
        if self.transition is not None and self._is_transition(first, second):
            return self.transition
        return self.mismatch

    def target_profile(
        self,
        target: np.ndarray,
        sentinel_score: int = SENTINEL_SCORE,
        dtype: type = np.int32,
    ) -> np.ndarray:
        """Per-base score rows against a target sequence.

        Returns an array of shape ``(NUM_BASES + 1, len(target))``:
        row ``c`` (c < 4) is the score of aligning base ``c`` against
        each target position; the last row is the wildcard-query row.
        Sentinel positions score ``sentinel_score`` in every row.  The
        profile is one gather from a ``(NUM_BASES + 1, 256)`` table
        indexed by target code.

        Args:
            target: coded target (``uint8`` codes).
            sentinel_score: score of any pairing with a sentinel; the
                kernel's narrow cells pass a smaller-magnitude value.
            dtype: integer type of the profile.
        """
        table = np.full((NUM_BASES + 1, 256), self.mismatch, dtype=dtype)
        for code in range(NUM_BASES):
            if self.transition is not None:
                # The other base of the same parity.
                table[code, code ^ 2] = self.transition
            table[code, code] = self.match
        table[:, SENTINEL_CODE] = sentinel_score
        return np.take(table, np.asarray(target), axis=1)

    def profile_row(self, profile: np.ndarray, query_code: int) -> np.ndarray:
        """The profile row for one query code (wildcards share a row)."""
        if query_code == SENTINEL_CODE:
            raise AlignmentError("query sequences cannot contain sentinels")
        row = min(int(query_code), NUM_BASES)
        return profile[row]

    def max_alignment_score(self, query_length: int) -> int:
        """Upper bound on any local score for a query of this length."""
        return query_length * self.match

    def sentinel_run_length(self, query_length: int) -> int:
        """Sentinel run long enough that gaps cannot bridge two sequences.

        A horizontal gap chain crossing ``r`` sentinel columns costs at
        least ``r * |gap|``; choosing r so this exceeds the maximum
        possible score makes boundary-crossing alignments impossible.
        """
        bound = self.max_alignment_score(query_length)
        return bound // abs(self.gap) + 2


@dataclass(frozen=True)
class AffineScoringScheme:
    """Match/mismatch with affine (open + extend) gap costs.

    Used by the reference Gotoh aligner; an extension beyond the 1996
    system's linear-gap fine search.
    """

    match: int = 1
    mismatch: int = -1
    gap_open: int = -3
    gap_extend: int = -1

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise AlignmentError(f"match score must be positive, got {self.match}")
        if self.mismatch >= 0:
            raise AlignmentError(
                f"mismatch score must be negative, got {self.mismatch}"
            )
        if self.gap_open >= 0 or self.gap_extend >= 0:
            raise AlignmentError(
                "gap open/extend penalties must be negative, got "
                f"{self.gap_open}/{self.gap_extend}"
            )

    def score_pair(self, first: int, second: int) -> int:
        """Score one pair of codes (same wildcard rule as linear)."""
        if first == SENTINEL_CODE or second == SENTINEL_CODE:
            return SENTINEL_SCORE
        if first >= WILDCARD_MIN_CODE or second >= WILDCARD_MIN_CODE:
            return self.mismatch
        return self.match if first == second else self.mismatch
