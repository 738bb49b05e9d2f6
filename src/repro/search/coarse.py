"""Coarse search: rank the collection by index evidence alone.

The coarse phase extracts the query's intervals, fetches each one's
posting list, and accumulates per-sequence scores without touching a
single residue.  Its output is an ordered candidate list for the fine
phase — the heart of the paper's partitioned evaluation.

Three accumulator strategies are provided (the A3 ablation):

* ``count`` — per interval, each sequence gains ``min(query count,
  sequence count)`` — the number of *matching* interval occurrences;
* ``normalised`` — the count score scaled by sequence length, removing
  the long-sequence advantage of chance hits;
* ``diagonal`` — FASTA-style: hits are binned by alignment diagonal and
  a sequence scores its best single band, which rewards *collinear*
  runs of matching intervals rather than scattered ones.  This needs
  the occurrence offsets, i.e. an index built with positions.
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
        query_positions: list[np.ndarray],
        *,
        skip: set[int] | None = None,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        """Float score per collection sequence (higher = more similar).

        Args:
            index: the interval index.
            query_ids: distinct interval ids in the query.
            query_counts: occurrences of each id in the query.
            query_positions: query offsets of each id's occurrences.
            skip / deadline: the quarantine set and time budget of
                :meth:`~repro.index.builder.IndexReader.read_lists`.
        """


def count_decoded_postings(instruments: Instruments, lens: np.ndarray) -> None:
    """Record the posting lists the coarse phase decoded.

    This is the single definition of the two counters' units, shared by
    every scorer and ranker (``coarse.py`` and ``frames.py`` alike):

    * ``coarse.postings_fetched`` — +1 per posting *list* decoded
      (``lens > 0``);
    * ``coarse.dgaps_decoded`` — +df per list: one per posting (one
      document gap per document entry), regardless of whether the
      consumer also decoded the occurrence offsets.
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
        query_positions: list[np.ndarray],
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
        query_positions: list[np.ndarray],
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
        query_positions: list[np.ndarray],
        *,
        skip: set[int] | None = None,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        inner = CountScorer()
        # Forward our sink: a bare CountScorer() starts on the class
        # default, which silently dropped this scorer's fetch counters.
        inner.instruments = self.instruments
        raw = inner.score(
            index, query_ids, query_counts, query_positions,
            skip=skip, deadline=deadline,
        )
        lengths = np.maximum(index.collection.lengths, 1).astype(np.float64)
        return raw * (index.collection.context().mean_length / lengths)


class DiagonalScorer(CoarseScorer):
    """Best single diagonal band of matching intervals (FASTA-style).

    Args:
        band_width: diagonals are binned into bands this wide, so small
            indels stay within one band.

    Raises:
        SearchError: at scoring time if the index has no offsets.
    """

    name = "diagonal"

    def __init__(self, band_width: int = 16) -> None:
        if band_width < 1:
            raise SearchError(f"band_width must be >= 1, got {band_width}")
        self.band_width = band_width

    def score(
        self,
        index: IndexReader,
        query_ids: np.ndarray,
        query_counts: np.ndarray,
        query_positions: list[np.ndarray],
        *,
        skip: set[int] | None = None,
        deadline: Deadline | None = None,
    ) -> np.ndarray:
        if not index.params.include_positions:
            raise SearchError(
                "diagonal coarse scoring needs an index built with positions"
            )
        lists = index.read_lists(
            query_ids, positions=True, skip=skip, deadline=deadline
        )
        count_decoded_postings(self.instruments, lists[0])
        scores = np.zeros(index.collection.num_sequences, dtype=np.float64)
        docs, diagonals = diagonal_hits(lists, query_positions)
        if not docs.shape[0]:
            return scores
        # Count hits per (sequence, band), then keep each sequence's
        # best.  Dedup over a 2-column (doc, band) array: packing both
        # into one integer key silently collided or mis-extracted docs
        # once a banded diagonal fell outside +-2**30.
        key_docs, _, hit_counts = band_hit_counts(
            docs, diagonals // self.band_width
        )
        np.maximum.at(scores, key_docs, hit_counts.astype(np.float64))
        return scores


def diagonal_hits(
    lists: tuple[np.ndarray, ...], query_positions: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Every (query offset, sequence offset) pair of a matching interval
    as (sequence ordinal, diagonal = sequence offset - query offset).

    ``lists`` is :meth:`~repro.index.builder.IndexReader.read_lists`
    output with positions over the query's intervals, and
    ``query_positions[i]`` holds interval ``i``'s query offsets.
    """
    lens, docs, counts, offsets = lists
    sizes = np.array(
        [group.shape[0] for group in query_positions], dtype=np.int64
    )
    # Each occurrence pairs with every query offset of its interval.
    interval_of = np.repeat(np.repeat(np.arange(lens.shape[0]), lens), counts)
    pairs = sizes[interval_of]
    total = int(pairs.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    within = np.arange(total) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    first_query = np.cumsum(sizes) - sizes
    query_offsets = np.concatenate(query_positions)[
        np.repeat(first_query[interval_of], pairs) + within
    ]
    return (
        np.repeat(np.repeat(docs, counts), pairs),
        np.repeat(offsets, pairs) - query_offsets,
    )


def band_hit_counts(
    docs: np.ndarray, bands: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hits per distinct (sequence, diagonal band) pair.

    Returns each pair's sequence ordinal, band, and hit count, sorted
    by (sequence, band).  Dedup runs over a 2-column array, so the full
    int64 diagonal range is safe — no packed-key arithmetic, which
    collided or mis-extracted ordinals for bands outside +-2**30.
    """
    pairs = np.stack((docs, bands), axis=1)
    unique_pairs, hit_counts = np.unique(pairs, axis=0, return_counts=True)
    return unique_pairs[:, 0], unique_pairs[:, 1], hit_counts


_SCORERS: dict[str, type[CoarseScorer]] = {
    CountScorer.name: CountScorer,
    IdfScorer.name: IdfScorer,
    NormalisedScorer.name: NormalisedScorer,
    DiagonalScorer.name: DiagonalScorer,
}


def make_scorer(name: str, **kwargs) -> CoarseScorer:
    """Instantiate a coarse scorer by name.

    Raises:
        SearchError: if the name is unknown.
    """
    try:
        return _SCORERS[name](**kwargs)
    except KeyError:
        raise SearchError(
            f"unknown coarse scorer {name!r}; known: {sorted(_SCORERS)}"
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
        unique_ids, counts, groups = self.query_intervals(query_codes)
        if not unique_ids.shape[0]:
            return []
        self.instruments.count(
            "coarse.query_intervals", int(unique_ids.shape[0])
        )
        scores = self.scorer.score(
            self.index, unique_ids, counts, groups,
            skip=self._skip, deadline=deadline,
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
