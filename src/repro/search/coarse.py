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
  ``log(1 + N / df)`` over the *live* collection (:class:`LiveCollection`):
  ``N`` counts live records and ``df`` sums every shard's vocabulary
  ``df`` less the tombstoned records holding the interval.  A lone
  ranker's collection is its own index, where ``df`` is the decoded list
  length; an engine over shards or tombstones installs the live one, so
  every layout scores exactly as a rebuild over the survivors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SearchError
from repro.index.builder import IndexReader
from repro.index.intervals import IntervalExtractor
from repro.index.store import SequenceSource
from repro.search.deadline import Deadline
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    coalesce,
)
from repro.search.results import CoarseCandidate, top_candidates

#: Every coarse scorer name, in presentation order.
SCORERS = ("count", "idf")


class LiveCollection:
    """The live records of every shard: what ``idf`` weighs rarity over.

    Built from ``(ranker, source, tombstoned local ordinals)`` per
    shard: ``num_live`` records, and the sorted distinct interval ids of
    the tombstoned records — taken with each index's own extractor, so a
    stride matches what was indexed — with how many of them hold each.
    """

    def __init__(
        self, shards: list[tuple[CoarseRanker, SequenceSource, list[int]]]
    ) -> None:
        self.rankers = [ranker for ranker, _, _ in shards]
        self.num_live = sum(
            ranker.index.collection.num_sequences - len(gone)
            for ranker, _, gone in shards
        )
        dead = [np.empty(0, dtype=np.int64)] + [
            ranker.index.params.make_extractor().extract_distinct(
                source.codes(ordinal)
            )
            for ranker, source, gone in shards
            for ordinal in gone
        ]
        self.dead_ids, self.dead_counts = np.unique(
            np.concatenate(dead), return_counts=True
        )

    def rarity(
        self, ranker: CoarseRanker, ids: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """``log(1 + N / df)`` per query interval, exact for the lists
        ``ranker`` read (``lens > 0``, the only weights it uses): its own
        list length — no second vocabulary access — plus every other
        shard's resolved ``df``, less the tombstoned records holding
        the interval.  Each other shard resolves under its own ranker's
        policy: under ``"skip"`` a damaged list joins that ranker's
        quarantine and counts as absent; otherwise the
        :class:`~repro.errors.CorruptionError` propagates from here."""
        df = lens.copy()
        read = np.flatnonzero(lens)
        for peer in self.rankers:
            if peer is not ranker:
                df[read] += peer.index.resolve(ids[read], skip=peer._skip).dfs
        held = read[np.isin(ids[read], self.dead_ids, assume_unique=True)]
        df[held] -= self.dead_counts[np.searchsorted(self.dead_ids, ids[held])]
        return np.log1p(self.num_live / np.maximum(df, 1))


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
        #: What ``idf`` weighs rarity over: this index alone until an
        #: engine over shards or tombstones installs the live collection.
        self.collection = (
            LiveCollection([(self, None, [])]) if scorer == "idf" else None
        )
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
            rarity = self.collection.rarity(self, ids, lens)
            weights = np.repeat(rarity, lens) * weights
        return np.bincount(docs, weights=weights, minlength=num_sequences)

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
