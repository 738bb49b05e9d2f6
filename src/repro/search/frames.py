"""Frame-restricted fine search (CAFE's fine-phase refinement).

Whole-candidate alignment pays for every base of every candidate, but
the index already knows *where* in each candidate the evidence lies:
the interval hits cluster on an alignment diagonal.  A *frame* is the
target region that diagonal band implies — the query length plus a
margin either side — and aligning only frames makes the fine phase's
cost proportional to candidate *count*, not candidate *length*.

The frame is a heuristic: an alignment that wanders outside it (large
indels, a second distant match region) can score lower than the
whole-sequence optimum.  The A4 ablation prices this against the
speedup; for family-similarity workloads the scores agree.

There is no separate frame aligner: :meth:`FrameCandidate.target`
slices the frame out of the record, so
:meth:`~repro.search.fine.FineSearcher.align_candidates` and the
engine's fine stage align frames as they are given them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SearchError
from repro.index.builder import IndexReader
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    coalesce,
)
from repro.search.coarse import (
    CoarseRanker,
    band_hit_counts,
    count_decoded_postings,
    diagonal_hits,
)
from repro.search.deadline import Deadline


@dataclass(frozen=True)
class FrameCandidate:
    """A candidate sequence with the region its hits point at.

    Attributes:
        ordinal: the sequence's collection ordinal.
        coarse_score: hits in the best diagonal band.
        target_start / target_end: the frame, clipped to the sequence.
    """

    ordinal: int
    coarse_score: float
    target_start: int
    target_end: int

    @property
    def width(self) -> int:
        return self.target_end - self.target_start

    def target(self, codes: np.ndarray) -> np.ndarray:
        """What the fine phase aligns of the record's ``codes``: the
        frame."""
        return codes[self.target_start : self.target_end]


class FrameRanker:
    """Coarse ranking that also localises each candidate's best region.

    Args:
        index: an interval index **built with positions**.
        band_width: diagonal band granularity (indel tolerance).
        margin: extra bases either side of the implied region.
        on_corruption: ``"skip"`` quarantines corrupt posting lists
            into :attr:`quarantined`, as
            :class:`~repro.search.coarse.CoarseRanker` does.

    Raises:
        SearchError: if the index stores no occurrence offsets.
    """

    def __init__(
        self,
        index: IndexReader,
        band_width: int = 16,
        margin: int = 48,
        on_corruption: str = "raise",
    ) -> None:
        if not index.params.include_positions:
            raise SearchError(
                "frame ranking needs an index built with positions"
            )
        if band_width < 1:
            raise SearchError(f"band_width must be >= 1, got {band_width}")
        if margin < 0:
            raise SearchError(f"margin must be >= 0, got {margin}")
        self.index = index
        self.band_width = band_width
        self.margin = margin
        self.instruments = NULL_INSTRUMENTS
        self.quarantined: set[int] = set()
        self._skip = self.quarantined if on_corruption == "skip" else None
        self._ranker = CoarseRanker(index, "count")  # for interval extraction

    def set_instruments(self, instruments: Instruments | None) -> None:
        """Attach observability to the frame ranker."""
        self.instruments = coalesce(instruments)
        self._ranker.set_instruments(instruments)

    def rank(
        self,
        query_codes: np.ndarray,
        cutoff: int,
        deadline: Deadline | None = None,
    ) -> list[FrameCandidate]:
        """The ``cutoff`` best candidates with their frames.

        Scoring is the diagonal-band hit count (collinear evidence), so
        the frame and the score come from the same band.  A bounded
        ``deadline`` is checked between chunks of posting lists
        (intervals not read before expiry contribute no hits).

        Raises:
            SearchError: if ``cutoff`` < 1.
        """
        if cutoff < 1:
            raise SearchError(f"cutoff must be >= 1, got {cutoff}")
        query_ids, _, groups = self._ranker.query_intervals(query_codes)
        if not query_ids.shape[0]:
            return []

        instruments = self.instruments
        instruments.count("coarse.query_intervals", int(query_ids.shape[0]))
        lists = self.index.read_lists(
            query_ids, positions=True, skip=self._skip, deadline=deadline
        )
        count_decoded_postings(instruments, lists[0])
        docs, diagonals = diagonal_hits(lists, groups)
        if not docs.shape[0]:
            return []

        # 2-column dedup: safe for the full int64 diagonal range (see
        # repro.search.coarse.band_hit_counts).
        key_docs, key_bands, counts = band_hit_counts(
            docs, diagonals // self.band_width
        )

        # Best band per document: sort by (doc, count) and keep the last
        # row of each doc group.
        order = np.lexsort((counts, key_docs))
        key_docs = key_docs[order]
        key_bands = key_bands[order]
        counts = counts[order]
        last_of_doc = np.flatnonzero(
            np.append(np.diff(key_docs) != 0, True)
        )
        best_docs = key_docs[last_of_doc]
        best_bands = key_bands[last_of_doc]
        best_counts = counts[last_of_doc]

        take = min(cutoff, best_docs.shape[0])
        top = np.lexsort((best_docs, -best_counts))[:take]

        query_length = int(query_codes.shape[0])
        interval_length = self.index.params.interval_length
        candidates = []
        for slot in top:
            ordinal = int(best_docs[slot])
            diagonal = int(best_bands[slot]) * self.band_width
            sequence_length = int(self.index.collection.lengths[ordinal])
            start = max(0, diagonal - self.margin)
            end = min(
                sequence_length,
                diagonal
                + query_length
                + self.band_width
                + interval_length
                + self.margin,
            )
            if end <= start:  # hits imply a region outside the sequence
                start, end = 0, min(sequence_length, query_length)
            candidates.append(
                FrameCandidate(
                    ordinal, float(best_counts[slot]), start, end
                )
            )
        return candidates
