"""A FASTA-style exhaustive heuristic baseline (Pearson & Lipman, 1988).

For every collection sequence the query's k-mers are joined against the
sequence, hits are binned by alignment diagonal (``init1``: the best
single diagonal run count), and the promising sequences are re-scored
with a banded local alignment around that diagonal (``opt``).  Unlike
the partitioned engine, *every* sequence is visited for every query —
this is the faster-but-still-exhaustive rival the paper compares
against.
"""

from __future__ import annotations

import time
from typing import Sequence as TypingSequence

import numpy as np

from repro.align.banded import banded_local_score
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


class FastaLikeSearcher:
    """Diagonal-method scan with banded re-scoring.

    Args:
        source: the collection.
        scheme: scoring for the banded re-score.
        seed_length: k-mer size of the diagonal method (ktup).
        band_half_width: half-width of the re-scoring band.
        rescore_limit: how many best-init1 sequences get the banded
            alignment; the rest rank by diagonal count alone.
    """

    def __init__(
        self,
        source: SequenceSource | TypingSequence[Sequence],
        scheme: ScoringScheme | None = None,
        seed_length: int = 6,
        band_half_width: int = 16,
        rescore_limit: int = 200,
    ) -> None:
        if not isinstance(source, SequenceSource):
            source = MemorySequenceSource(source)
        if not len(source):
            raise SearchError("cannot scan an empty collection")
        if rescore_limit < 1:
            raise SearchError(
                f"rescore_limit must be >= 1, got {rescore_limit}"
            )
        self.source = source
        self.scheme = scheme or ScoringScheme()
        self.seed_length = seed_length
        self.band_half_width = band_half_width
        self.rescore_limit = rescore_limit
        self.instruments = NULL_INSTRUMENTS
        self._table = SeedTable(source, seed_length)

    def set_instruments(self, instruments: Instruments | None) -> None:
        """Attach observability to the scanner (``None`` detaches)."""
        self.instruments = coalesce(instruments)

    def _best_diagonal(
        self, ordinal: int, query_ids: np.ndarray, groups: list[np.ndarray]
    ) -> tuple[int, int]:
        """(init1 hit count, diagonal) of the sequence's best diagonal."""
        diagonal_chunks: list[np.ndarray] = []
        for slot, offsets in self._table.shared_with(ordinal, query_ids):
            query_offsets = groups[slot]
            diagonal_chunks.append(
                (offsets[None, :] - query_offsets[:, None]).reshape(-1)
            )
        if not diagonal_chunks:
            return 0, 0
        diagonals = np.concatenate(diagonal_chunks)
        values, counts = np.unique(diagonals, return_counts=True)
        best = int(np.argmax(counts))
        return int(counts[best]), int(values[best])

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
        take = 0
        with instruments.span("search"):
            query_ids, groups = query_seed_groups(codes, self.seed_length)
            init1 = np.zeros(len(self.source), dtype=np.int64)
            diagonals = np.zeros(len(self.source), dtype=np.int64)
            for ordinal in range(len(self.source)):
                count, diagonal = self._best_diagonal(
                    ordinal, query_ids, groups
                )
                init1[ordinal] = count
                diagonals[ordinal] = diagonal

            candidates = np.flatnonzero(init1 > 0)
            take = min(self.rescore_limit, candidates.shape[0])
            hits: list[SearchHit] = []
            if take:
                block = candidates[
                    np.argpartition(init1[candidates], -take)[-take:]
                ]
                for ordinal in block:
                    target = self.source.codes(int(ordinal))
                    score = banded_local_score(
                        codes,
                        target,
                        int(diagonals[ordinal]),
                        self.band_half_width,
                        self.scheme,
                    )
                    if score >= 1:
                        hits.append(
                            SearchHit(
                                ordinal=int(ordinal),
                                identifier=self.source.identifier(
                                    int(ordinal)
                                ),
                                score=score,
                                coarse_score=float(init1[ordinal]),
                            )
                        )
            hits.sort(key=fine_order)
        finished = time.perf_counter()
        instruments.count("fasta.queries")
        instruments.count("fasta.sequences_scanned", len(self.source))
        instruments.count("fasta.sequences_rescored", int(take))
        instruments.observe("fasta.total_seconds", finished - started)
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
