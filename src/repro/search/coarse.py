"""Coarse search: score the collection by index evidence alone.

The coarse phase extracts the query's distinct intervals, reads their
posting lists in one :meth:`~repro.index.builder.IndexReader.read_lists`
call and accumulates one weighted histogram over the sequences, without
touching a single residue.  :meth:`CoarseRanker.scores` is that dense
score array; the cut to the best ``coarse_cutoff`` sequences is
:func:`~repro.search.results.top_candidates`, applied once by the
engine across every shard — the heart of the paper's partitioned
evaluation.

A scorer is a name in :data:`SCORERS`, a weighting inside the one
accumulate (the A3 ablation):

* ``count`` — per interval, each sequence gains ``min(query count,
  sequence count)`` — the number of *matching* interval occurrences;
* ``idf`` — each interval's count weighted by its rarity,
  ``log(1 + N / df)``;
* ``normalised`` — the count score scaled by ``mean length / sequence
  length``, removing the long-sequence advantage of chance hits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SearchError
from repro.index.builder import IndexReader
from repro.index.intervals import IntervalExtractor
from repro.search.deadline import Deadline
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    coalesce,
)
from repro.search.results import CoarseCandidate, top_candidates

#: Every coarse scorer name, in presentation order.
SCORERS = ("count", "idf", "normalised")


class CoarseRanker:
    """Runs the coarse phase: query intervals in, sequence scores out.

    Args:
        index: the interval index to search.
        scorer: a name in :data:`SCORERS`.
        on_corruption: ``"skip"`` quarantines a posting list that fails
            an integrity check (recorded in :attr:`quarantined`, never
            read again) and scores without it; any other policy raises
            the :class:`~repro.errors.CorruptionError`.

    Raises:
        SearchError: if the scorer name is unknown.
    """

    def __init__(
        self,
        index: IndexReader,
        scorer: str = "count",
        on_corruption: str = "raise",
    ) -> None:
        if scorer not in SCORERS:
            raise SearchError(
                f"unknown coarse scorer {scorer!r}; known: {list(SCORERS)}"
            )
        self.index = index
        self.scorer = scorer
        self.instruments = NULL_INSTRUMENTS
        #: Interval ids quarantined as corrupt (under ``"skip"``).
        self.quarantined: set[int] = set()
        self._skip = self.quarantined if on_corruption == "skip" else None
        # Query intervals are always extracted at stride 1: a sparsely
        # indexed collection (stride > 1) is still hit as long as *some*
        # query window aligns with an indexed window.
        self._extractor = IntervalExtractor(
            index.params.interval_length, stride=1
        )

    def set_instruments(self, instruments: Instruments | None) -> None:
        """Attach observability to the ranker."""
        self.instruments = coalesce(instruments)

    def query_intervals(
        self, query_codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Distinct query interval ids, their counts, and the query
        offsets of each."""
        ids, positions = self._extractor.extract(query_codes)
        order = np.argsort(ids, kind="stable")
        unique_ids, starts, counts = np.unique(
            ids[order], return_index=True, return_counts=True
        )
        groups = np.split(positions[order], starts[1:]) if starts.size else []
        return unique_ids, counts.astype(np.int64), groups

    def scores(
        self, query_codes: np.ndarray, deadline: Deadline | None = None
    ) -> np.ndarray:
        """Float score per collection sequence (higher = more similar;
        0 = no evidence).

        A bounded ``deadline`` is checked between chunks of posting
        lists: once expired the remaining intervals contribute no
        evidence and the scores accumulated so far are the (partial)
        answer.

        Two instruments count the lists read: ``coarse.postings_fetched``
        +1 per list decoded (``lens > 0``) and ``coarse.dgaps_decoded``
        +df per list (one document gap per posting).
        """
        num_sequences = self.index.collection.num_sequences
        ids, query_counts = np.unique(
            self._extractor.extract(query_codes)[0], return_counts=True
        )
        if not ids.shape[0]:
            return np.zeros(num_sequences, dtype=np.float64)
        instruments = self.instruments
        instruments.count("coarse.query_intervals", int(ids.shape[0]))
        lens, docs, counts = self.index.read_lists(
            ids, skip=self._skip, deadline=deadline
        )
        fetched = int(np.count_nonzero(lens))
        if fetched:
            instruments.count("coarse.postings_fetched", fetched)
            instruments.count("coarse.dgaps_decoded", int(lens.sum()))
        # One weighted histogram in interval order, documents ascending
        # within each list: the float sums never depend on the decoder.
        weights = np.minimum(counts, np.repeat(query_counts, lens))
        if self.scorer == "idf":
            # df == decoded list length: no second vocabulary access.
            rarity = np.log1p(num_sequences / np.maximum(lens, 1))
            weights = np.repeat(rarity, lens) * weights
        scores = np.bincount(docs, weights=weights, minlength=num_sequences)
        if self.scorer == "normalised":
            lengths = np.maximum(self.index.collection.lengths, 1)
            mean = self.index.collection.context().mean_length
            scores = scores * (mean / lengths.astype(np.float64))
        return scores

    def rank(
        self,
        query_codes: np.ndarray,
        cutoff: int,
        deadline: Deadline | None = None,
    ) -> list[CoarseCandidate]:
        """The ``cutoff`` best-scoring sequences, best first:
        :func:`~repro.search.results.top_candidates` of :meth:`scores`.

        Raises:
            SearchError: if ``cutoff`` is not positive.
        """
        return top_candidates(self.scores(query_codes, deadline), cutoff)
