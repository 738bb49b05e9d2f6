"""Fine search: local alignment of the query against candidates only.

The candidates the coarse phase selects are fetched from the sequence
source, concatenated into a small :class:`TargetImage`, and scanned
with the vectorised Smith-Waterman kernel.  The cost is proportional
to the candidate volume, not the collection — which is the entire
point of partitioned evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.align.kernel import TargetImage, segment_best_scores
from repro.align.scoring import ScoringScheme
from repro.index.store import SequenceSource
from repro.search.results import CoarseCandidate, SearchHit, hits_from_scores


class FineSearcher:
    """Aligns a query against a candidate subset of the collection."""

    def __init__(
        self, source: SequenceSource, scheme: ScoringScheme | None = None
    ) -> None:
        self.source = source
        self.scheme = scheme or ScoringScheme()

    def align_candidates(
        self,
        query_codes: np.ndarray,
        candidates: list[CoarseCandidate],
        min_score: int = 1,
    ) -> list[SearchHit]:
        """Score every candidate and return them ranked, best first.

        Args:
            query_codes: the coded query.
            candidates: coarse-phase output (any order).
            min_score: discard alignments scoring below this.

        Ties are broken by coarse score, then by ordinal, so rankings
        are deterministic.
        """
        if not candidates or not query_codes.shape[0]:
            return []
        codes = [self.source.codes(candidate.ordinal) for candidate in candidates]
        image = TargetImage.build(
            codes, self.scheme, max_query_length=int(query_codes.shape[0])
        )
        scores = segment_best_scores(query_codes, image, self.scheme)
        return hits_from_scores(self.source, candidates, scores, min_score)
