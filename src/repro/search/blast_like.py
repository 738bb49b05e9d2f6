"""A BLAST1-style exhaustive heuristic baseline (Altschul et al., 1990).

Exact word seeds (default w = 11) are extended along their diagonals
with an X-drop cut-off into ungapped HSPs; sequences whose best HSP
clears a threshold are re-scored with a banded gapped alignment around
the HSP diagonal.  Faster than the FASTA-style scan (long seeds prune
almost everything) but still linear in the collection — every sequence
is examined for every query.
"""

from __future__ import annotations

import time
from typing import Sequence as TypingSequence

import numpy as np

from repro.align.banded import banded_local_score
from repro.align.extension import extend_seed
from repro.align.scoring import ScoringScheme
from repro.errors import SearchError
from repro.index.store import MemorySequenceSource, SequenceSource
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    coalesce,
)
from repro.search.results import SearchHit, SearchReport, fine_order
from repro.search.seeds import SeedTable, query_seed_groups
from repro.sequences.record import Sequence


class BlastLikeSearcher:
    """Seed-and-extend scan with banded gapped re-scoring.

    Args:
        source: the collection.
        scheme: scoring for extension and re-scoring.
        seed_length: exact-match word size (w).
        x_drop: ungapped extension give-up margin.
        hsp_threshold: minimum ungapped HSP score for a sequence to
            reach the gapped stage.
        band_half_width: half-width of the gapped band.
        max_extensions: cap on seed extensions per sequence (one per
            distinct diagonal is kept below the cap).
    """

    def __init__(
        self,
        source: SequenceSource | TypingSequence[Sequence],
        scheme: ScoringScheme | None = None,
        seed_length: int = 11,
        x_drop: int = 10,
        hsp_threshold: int = 16,
        band_half_width: int = 16,
        max_extensions: int = 64,
    ) -> None:
        if not isinstance(source, SequenceSource):
            source = MemorySequenceSource(source)
        if not len(source):
            raise SearchError("cannot scan an empty collection")
        if max_extensions < 1:
            raise SearchError(
                f"max_extensions must be >= 1, got {max_extensions}"
            )
        self.source = source
        self.scheme = scheme or ScoringScheme()
        self.seed_length = seed_length
        self.x_drop = x_drop
        self.hsp_threshold = hsp_threshold
        self.band_half_width = band_half_width
        self.max_extensions = max_extensions
        self.instruments = NULL_INSTRUMENTS
        self._table = SeedTable(source, seed_length)

    def set_instruments(self, instruments: Instruments | None) -> None:
        """Attach observability to the scanner (``None`` detaches)."""
        self.instruments = coalesce(instruments)

    def _best_hsp(
        self,
        ordinal: int,
        query_codes: np.ndarray,
        query_ids: np.ndarray,
        groups: list[np.ndarray],
    ) -> tuple[int, int]:
        """(best ungapped HSP score, its diagonal) for one sequence."""
        target = None
        seen_diagonals: set[int] = set()
        best_score = 0
        best_diagonal = 0
        for slot, offsets in self._table.shared_with(ordinal, query_ids):
            query_offsets = groups[slot]
            for query_offset in query_offsets:
                for target_offset in offsets:
                    diagonal = int(target_offset) - int(query_offset)
                    if diagonal in seen_diagonals:
                        continue
                    seen_diagonals.add(diagonal)
                    if len(seen_diagonals) > self.max_extensions:
                        return best_score, best_diagonal
                    if target is None:
                        target = self.source.codes(ordinal)
                    extension = extend_seed(
                        query_codes,
                        target,
                        int(query_offset),
                        int(target_offset),
                        self.seed_length,
                        self.scheme,
                        x_drop=self.x_drop,
                    )
                    if extension.score > best_score:
                        best_score = extension.score
                        best_diagonal = diagonal
        return best_score, best_diagonal

    def search(
        self, query: Sequence | np.ndarray, top_k: int = 10
    ) -> SearchReport:
        """Evaluate one query against every sequence.

        Raises:
            SearchError: if ``top_k`` < 1 or the query is shorter than
                the seed length.
        """
        if top_k < 1:
            raise SearchError(f"top_k must be >= 1, got {top_k}")
        if isinstance(query, Sequence):
            identifier, codes = query.identifier, query.codes
        else:
            identifier, codes = "query", np.asarray(query, dtype=np.uint8)
        if codes.shape[0] < self.seed_length:
            raise SearchError(
                f"query {identifier!r} is shorter than the seed "
                f"length {self.seed_length}"
            )

        instruments = self.instruments
        started = time.perf_counter()
        rescored = 0
        with instruments.span("search"):
            query_ids, groups = query_seed_groups(codes, self.seed_length)
            hits: list[SearchHit] = []
            for ordinal in range(len(self.source)):
                hsp_score, diagonal = self._best_hsp(
                    ordinal, codes, query_ids, groups
                )
                if hsp_score < self.hsp_threshold:
                    continue
                rescored += 1
                score = banded_local_score(
                    codes,
                    self.source.codes(ordinal),
                    diagonal,
                    self.band_half_width,
                    self.scheme,
                )
                if score >= 1:
                    hits.append(
                        SearchHit(
                            ordinal=ordinal,
                            identifier=self.source.identifier(ordinal),
                            score=score,
                            coarse_score=float(hsp_score),
                        )
                    )
            hits.sort(key=fine_order)
        finished = time.perf_counter()
        instruments.count("blast.queries")
        instruments.count("blast.sequences_scanned", len(self.source))
        instruments.count("blast.sequences_rescored", rescored)
        instruments.observe("blast.total_seconds", finished - started)
        return SearchReport(
            query_identifier=identifier,
            hits=hits[:top_k],
            candidates_examined=len(self.source),
            coarse_seconds=0.0,
            fine_seconds=finished - started,
        )

    def search_batch(
        self, queries: list[Sequence], top_k: int = 10
    ) -> list[SearchReport]:
        """Evaluate a list of queries in order."""
        return [self.search(query, top_k=top_k) for query in queries]
