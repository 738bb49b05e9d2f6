"""Fine search: local alignment of the query against candidates only.

The candidates the coarse phase selects are fetched from the sequence
source, concatenated into a small :class:`TargetImage`, and scanned
with the vectorised Smith-Waterman kernel.  The cost is proportional
to the candidate volume, not the collection — which is the entire
point of partitioned evaluation.

:func:`fetch_targets` and :func:`scan_targets` are the one path from
candidates to scores: :class:`FineSearcher` runs them back to back over
one source, the partitioned engine fetches per shard and scans the
merged selection once.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.align.kernel import TargetImage, segment_best_scores
from repro.align.scoring import ScoringScheme
from repro.errors import CorruptionError
from repro.index.store import SequenceSource
from repro.search.results import CoarseCandidate, SearchHit, hits_from_scores


def fetch_targets(
    source: SequenceSource,
    candidates: Sequence,
    on_corrupt: Callable[[object, CorruptionError], None] | None = None,
) -> list[np.ndarray | None]:
    """Each candidate's record codes, in candidate order.

    A record failing its checksum raises :class:`CorruptionError`,
    unless ``on_corrupt`` is given: then it is called with the
    candidate and the error, and the candidate's target is ``None``.
    """
    targets: list[np.ndarray | None] = []
    for candidate in candidates:
        try:
            codes = source.codes(candidate.ordinal)
        except CorruptionError as exc:
            if on_corrupt is None or exc.ordinal is None:
                raise
            on_corrupt(candidate, exc)
            targets.append(None)
        else:
            targets.append(codes)
    return targets


def scan_targets(
    query_codes: np.ndarray,
    targets: Sequence[np.ndarray],
    scheme: ScoringScheme,
) -> tuple[np.ndarray, int]:
    """Best local score of the query against each target, from one
    image and one kernel call; also the image's column count.

    Sentinel runs make every segment's best score independent of its
    neighbours, so any grouping of the targets into images scores the
    same.
    """
    image = TargetImage.build(
        targets, scheme, max_query_length=int(query_codes.shape[0])
    )
    scores = segment_best_scores(query_codes, image, scheme)
    return scores, int(image.codes.shape[0])


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
        targets = fetch_targets(self.source, candidates)
        scores, _ = scan_targets(query_codes, targets, self.scheme)
        return hits_from_scores(
            candidates,
            scores,
            min_score,
            lambda i: self.source.identifier(candidates[i].ordinal),
        )
