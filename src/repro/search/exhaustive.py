"""Exhaustive Smith-Waterman scanning — the paper's gold-standard rival.

Every query is locally aligned against *every* collection sequence.
The scanner concatenates the collection (sentinel-separated) for its
first query and reuses that image across queries, rebuilding it only
when a longer query arrives, so the per-query cost is one pass of the
vectorised kernel over the whole collection: exactly the linear-
in-collection-size behaviour the paper argues will become prohibitive.
Doubles as the effectiveness oracle for E5/E7.
"""

from __future__ import annotations

import time
from typing import Sequence as TypingSequence

import numpy as np

from repro.align.kernel import TargetImage, segment_best_scores
from repro.align.scoring import ScoringScheme
from repro.errors import SearchError
from repro.index.store import MemorySequenceSource, SequenceSource
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    coalesce,
)
from repro.search.results import SearchHit, SearchReport
from repro.sequences.record import Sequence

class ExhaustiveSearcher:
    """Full-collection Smith-Waterman scan.

    Args:
        source: the collection (a source or a plain list of records).
        scheme: local-alignment scoring.
        min_score: alignments below this never become answers.
        instruments: optional observability sink (``exhaustive.*``
            metrics plus a ``search`` span per query).
    """

    def __init__(
        self,
        source: SequenceSource | TypingSequence[Sequence],
        scheme: ScoringScheme | None = None,
        min_score: int = 1,
        instruments: Instruments | None = None,
    ) -> None:
        if not isinstance(source, SequenceSource):
            source = MemorySequenceSource(source)
        if not len(source):
            raise SearchError("cannot scan an empty collection")
        self.source = source
        self.scheme = scheme or ScoringScheme()
        self.min_score = min_score
        self.instruments = NULL_INSTRUMENTS
        if instruments is not None:
            self.set_instruments(instruments)
        # Built for the first query, rebuilt for a longer one: the
        # sentinel runs are sized for the longest query seen so far.
        self._image: TargetImage | None = None

    def set_instruments(self, instruments: Instruments | None) -> None:
        """Attach observability to the scanner (``None`` detaches)."""
        self.instruments = coalesce(instruments)

    def _build_image(self, max_query_length: int) -> TargetImage:
        codes = [
            self.source.codes(ordinal) for ordinal in range(len(self.source))
        ]
        return TargetImage.build(codes, self.scheme, max_query_length)

    def _query_codes(self, query: Sequence | np.ndarray) -> tuple[str, np.ndarray]:
        if isinstance(query, Sequence):
            return query.identifier, query.codes
        return "query", np.asarray(query, dtype=np.uint8)

    def scores(self, query: Sequence | np.ndarray) -> np.ndarray:
        """Best local score against every sequence (by ordinal)."""
        _, codes = self._query_codes(query)
        if (
            self._image is None
            or codes.shape[0] > self._image.max_query_length
        ):
            self._image = self._build_image(max(1, int(codes.shape[0])))
        return segment_best_scores(codes, self._image, self.scheme)

    def search(
        self, query: Sequence | np.ndarray, top_k: int = 10
    ) -> SearchReport:
        """Evaluate one query over the whole collection.

        Raises:
            SearchError: if ``top_k`` < 1.
        """
        if top_k < 1:
            raise SearchError(f"top_k must be >= 1, got {top_k}")
        identifier, _ = self._query_codes(query)
        instruments = self.instruments
        started = time.perf_counter()
        with instruments.span("search"):
            scores = self.scores(query)
            qualifying = np.flatnonzero(scores >= self.min_score)
            take = min(top_k, qualifying.shape[0])
            hits: list[SearchHit] = []
            if take:
                # Full deterministic order (score desc, ordinal asc) so
                # tied answers at the cut never depend on partitioning
                # internals.
                order = np.lexsort((qualifying, -scores[qualifying]))
                for ordinal in qualifying[order][:take]:
                    hits.append(
                        SearchHit(
                            ordinal=int(ordinal),
                            identifier=self.source.identifier(int(ordinal)),
                            score=int(scores[ordinal]),
                        )
                    )
        finished = time.perf_counter()
        instruments.count("exhaustive.queries")
        instruments.count("exhaustive.sequences_scanned", len(self.source))
        instruments.observe("exhaustive.total_seconds", finished - started)
        return SearchReport(
            query_identifier=identifier,
            hits=hits,
            candidates_examined=len(self.source),
            coarse_seconds=0.0,
            fine_seconds=finished - started,
        )

    def search_batch(
        self, queries: list[Sequence], top_k: int = 10
    ) -> list[SearchReport]:
        """Evaluate a list of queries in order."""
        return [self.search(query, top_k=top_k) for query in queries]
