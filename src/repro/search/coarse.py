"""Coarse search: rank the collection by index evidence alone.

The coarse phase extracts the query's intervals, fetches each one's
posting list, and accumulates per-sequence scores without touching a
single residue.  Its output is an ordered candidate list for the fine
phase — the heart of the paper's partitioned evaluation.

Three accumulator strategies are provided (the A3 ablation):

* ``count`` — per interval, each sequence gains ``min(query count,
  sequence count)`` — the number of *matching* interval occurrences;
* ``idf`` — the count score with each interval weighted by its
  rarity, ``log(1 + N / df)``;
* ``normalised`` — the count score scaled by sequence length, removing
  the long-sequence advantage of chance hits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

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
from repro.search.results import CoarseCandidate


class CoarseScorer(ABC):
    """Strategy: turn index evidence into per-sequence scores."""

    name: str = ""

    #: Observability sink; the owning :class:`CoarseRanker` replaces
    #: this with its own when instrumentation is enabled.
    instruments: Instruments = NULL_INSTRUMENTS

    @abstractmethod
    def score(
        self,
        index: IndexReader,
        query_ids: np.ndarray,
        query_counts: np.ndarray,
        *,
        skip: set[int] | None = None,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Float score per collection sequence (higher = more similar).

        Args:
            index: the interval index.
            query_ids: distinct interval ids in the query.
            query_counts: occurrences of each id in the query.
            skip / deadline: the quarantine set and time budget of
                :meth:`~repro.index.builder.IndexReader.read_lists`.
        """


def count_decoded_postings(instruments: Instruments, lens: np.ndarray) -> None:
    """Record the posting lists the coarse phase decoded.

    This is the single definition of the two counters' units, shared by
    every scorer:

    * ``coarse.postings_fetched`` — +1 per posting *list* decoded
      (``lens > 0``);
    * ``coarse.dgaps_decoded`` — +df per list: one per posting (one
      document gap per document entry).
    """
    fetched = int(np.count_nonzero(lens))
    if fetched:
        instruments.count("coarse.postings_fetched", fetched)
        instruments.count("coarse.dgaps_decoded", int(lens.sum()))


class CountScorer(CoarseScorer):
    """Number of matching interval occurrences."""

    name = "count"

    def score(
        self,
        index: IndexReader,
        query_ids: np.ndarray,
        query_counts: np.ndarray,
        *,
        skip: set[int] | None = None,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        num_sequences = index.collection.num_sequences
        lens, docs, counts = index.read_lists(
            query_ids, skip=skip, deadline=deadline
        )
        count_decoded_postings(self.instruments, lens)
        if not docs.shape[0]:
            return np.zeros(num_sequences, dtype=np.float64)
        # One weighted histogram in interval order, documents ascending
        # within each list: the float sums never depend on the decoder.
        caps = np.repeat(query_counts, lens)
        return np.bincount(
            docs, weights=np.minimum(counts, caps), minlength=num_sequences
        )


class IdfScorer(CoarseScorer):
    """Count score with inverse-document-frequency weighting.

    Text-retrieval style: an interval appearing in few sequences is
    strong evidence, one appearing everywhere is nearly none, so each
    matching occurrence contributes ``log(1 + N / df)`` instead of 1.
    """

    name = "idf"

    def score(
        self,
        index: IndexReader,
        query_ids: np.ndarray,
        query_counts: np.ndarray,
        *,
        skip: set[int] | None = None,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        num_sequences = index.collection.num_sequences
        lens, docs, counts = index.read_lists(
            query_ids, skip=skip, deadline=deadline
        )
        count_decoded_postings(self.instruments, lens)
        if not docs.shape[0]:
            return np.zeros(num_sequences, dtype=np.float64)
        # df == decoded list length, so the weight needs no second
        # vocabulary access: repeat each list's weight across its
        # postings and histogram once.
        weights = np.log1p(num_sequences / np.maximum(lens, 1))
        caps = np.repeat(query_counts, lens)
        return np.bincount(
            docs,
            weights=np.repeat(weights, lens) * np.minimum(counts, caps),
            minlength=num_sequences,
        )


class NormalisedScorer(CoarseScorer):
    """Count score divided by sequence length (per-base hit density).

    Scaled by the mean sequence length so magnitudes stay comparable
    with the raw count score.
    """

    name = "normalised"

    def score(
        self,
        index: IndexReader,
        query_ids: np.ndarray,
        query_counts: np.ndarray,
        *,
        skip: set[int] | None = None,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        inner = CountScorer()
        # Forward our sink: a bare CountScorer() starts on the class
        # default, which silently dropped this scorer's fetch counters.
        inner.instruments = self.instruments
        raw = inner.score(
            index, query_ids, query_counts, skip=skip, deadline=deadline
        )
        lengths = np.maximum(index.collection.lengths, 1).astype(np.float64)
        return raw * (index.collection.context().mean_length / lengths)


#: The scorer registry: every registered name, in presentation order.
SCORERS: dict[str, type[CoarseScorer]] = {
    CountScorer.name: CountScorer,
    IdfScorer.name: IdfScorer,
    NormalisedScorer.name: NormalisedScorer,
}


def make_scorer(name: str, **kwargs) -> CoarseScorer:
    """Instantiate a coarse scorer by name.

    Raises:
        SearchError: if the name is unknown.
    """
    try:
        return SCORERS[name](**kwargs)
    except KeyError:
        raise SearchError(
            f"unknown coarse scorer {name!r}; known: {sorted(SCORERS)}"
        ) from None


class CoarseRanker:
    """Runs the coarse phase: query intervals in, ranked candidates out.

    Args:
        index: the interval index to search.
        scorer: a :class:`CoarseScorer` or a registered scorer name.
        on_corruption: ``"skip"`` quarantines a posting list that fails
            an integrity check (recorded in :attr:`quarantined`, never
            read again) and ranks without it; any other policy raises
            the :class:`~repro.errors.CorruptionError`.
    """

    def __init__(
        self,
        index: IndexReader,
        scorer: CoarseScorer | str = "count",
        on_corruption: str = "raise",
    ) -> None:
        self.index = index
        self.scorer = make_scorer(scorer) if isinstance(scorer, str) else scorer
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
        """Attach observability to the ranker and its scorer."""
        self.instruments = coalesce(instruments)
        self.scorer.instruments = self.instruments

    def query_intervals(
        self, query_codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Distinct query interval ids, their counts, and offset groups."""
        ids, positions = self._extractor.extract(query_codes)
        if not ids.shape[0]:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), []
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        positions = positions[order]
        unique_ids, starts, counts = np.unique(
            ids, return_index=True, return_counts=True
        )
        groups = [
            positions[int(start) : int(start) + int(count)]
            for start, count in zip(starts, counts)
        ]
        return unique_ids, counts.astype(np.int64), groups

    def rank(
        self,
        query_codes: np.ndarray,
        cutoff: int,
        deadline: Deadline | None = None,
    ) -> list[CoarseCandidate]:
        """The ``cutoff`` best-scoring sequences, best first.

        Sequences with a zero score are never returned, so the result
        may be shorter than ``cutoff``.

        A bounded ``deadline`` is checked between chunks of posting
        lists: once expired the remaining intervals contribute no
        evidence and the scores accumulated so far become the (partial)
        ranking.

        Raises:
            SearchError: if ``cutoff`` is not positive.
        """
        if cutoff < 1:
            raise SearchError(f"cutoff must be >= 1, got {cutoff}")
        unique_ids, counts, _ = self.query_intervals(query_codes)
        if not unique_ids.shape[0]:
            return []
        self.instruments.count(
            "coarse.query_intervals", int(unique_ids.shape[0])
        )
        scores = self.scorer.score(
            self.index, unique_ids, counts, skip=self._skip, deadline=deadline
        )
        positive = np.flatnonzero(scores > 0)
        if not positive.shape[0]:
            return []
        take = min(cutoff, positive.shape[0])
        # Full deterministic order (score desc, ordinal asc) so tied
        # candidates at the cutoff never depend on partitioning internals.
        order = np.lexsort((positive, -scores[positive]))
        return [
            CoarseCandidate(int(ordinal), float(scores[ordinal]))
            for ordinal in positive[order][:take]
        ]
