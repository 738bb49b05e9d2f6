"""Frame localisation for the fine phase (CAFE's fine-phase refinement).

Whole-candidate alignment pays for every base of every candidate, but
a match of the query lies on one alignment diagonal of the candidate.
A *frame* is the target region the best diagonal band of shared
intervals implies — the query length plus a margin either side — and
aligning only frames makes the fine phase's cost proportional to
candidate *count*, not candidate *length*.

The evidence comes from the records themselves, not the index: the
fine phase fetches every record it aligns anyway, so their intervals
are extracted and joined with the query's sorted interval ids — one
``searchsorted``, as :meth:`~repro.search.seeds.SeedTable.shared_with`
joins seeds — for a whole batch of records at once.  Any coarse
backend, and a degraded query with no index at all, localises the same
way.

The frame is a heuristic: an alignment that wanders outside it (large
indels, a second distant match region) can score lower than the
whole-sequence optimum, never higher.  A record sharing no interval
with the query has nothing to localise with and is aligned whole.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.intervals import IntervalExtractor
from repro.sequences.alphabet import WILDCARD_MIN_CODE

#: Diagonal band granularity: small indels stay within one band.
BAND_WIDTH = 16

#: Extra bases either side of the region the best band implies.
MARGIN = 48


class FrameLocaliser:
    """Cuts fetched records down to the frames one query's hits imply.

    Args:
        query_codes: the coded query.
        interval_length: the shared-interval length (the index's).
    """

    def __init__(self, query_codes: np.ndarray, interval_length: int) -> None:
        self._extractor = IntervalExtractor(interval_length, stride=1)
        self._query_length = int(query_codes.shape[0])
        self._reach = self._query_length + BAND_WIDTH + interval_length + MARGIN
        ids, positions = self._extractor.extract(query_codes)
        order = np.argsort(ids, kind="stable")
        self._ids, self._first, self._counts = np.unique(
            ids[order], return_index=True, return_counts=True
        )
        self._positions = positions[order]

    def __call__(self, records: Sequence[np.ndarray]) -> list[np.ndarray]:
        """What the fine phase aligns of each record: its frame."""
        return [
            codes[frame] for codes, frame in zip(records, self.frames(records))
        ]

    def frames(self, records: Sequence[np.ndarray]) -> list[slice]:
        """Each record's frame: all of it when the record shares no
        interval with the query."""
        lengths = np.array(
            [codes.shape[0] for codes in records], dtype=np.int64
        )
        whole = [slice(0, length) for length in lengths.tolist()]
        if not self._ids.shape[0] or not lengths.sum():
            return whole
        # One extraction over the records joined by a wildcard, which no
        # interval spans: record i starts at starts[i].
        starts = np.cumsum(lengths + 1) - (lengths + 1)
        joined = np.full(
            int(starts[-1] + lengths[-1]), WILDCARD_MIN_CODE, dtype=np.uint8
        )
        for start, codes in zip(starts.tolist(), records):
            joined[start : start + codes.shape[0]] = codes
        ids, positions = self._extractor.extract(joined)
        slots = np.minimum(
            np.searchsorted(self._ids, ids), self._ids.shape[0] - 1
        )
        pairs = np.where(self._ids[slots] == ids, self._counts[slots], 0)
        total = int(pairs.sum())
        if not total:
            return whole
        # Each record occurrence pairs with every query occurrence of
        # its interval: diagonal = record offset - query offset.
        within = np.arange(total) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        offsets = np.repeat(positions, pairs)
        owners = np.searchsorted(starts, offsets, side="right") - 1
        bands = (
            offsets
            - starts[owners]
            - self._positions[np.repeat(self._first[slots], pairs) + within]
        ) // BAND_WIDTH
        lowest = int(bands.min())
        span = int(bands.max()) - lowest + 1
        keys, hits = np.unique(
            owners * span + (bands - lowest), return_counts=True
        )
        # Per record, the fullest band; ties go to the highest diagonal
        # (lexsort is stable, so the last of a record's group wins).
        order = np.lexsort((hits, keys // span))
        keys = keys[order]
        owners = keys // span
        last = np.flatnonzero(np.append(np.diff(owners) != 0, True))
        owners = owners[last]
        diagonals = (keys[last] % span + lowest) * BAND_WIDTH
        ends = np.minimum(lengths[owners], diagonals + self._reach)
        begins = np.maximum(0, diagonals - MARGIN)
        outside = ends <= begins  # hits imply a region off the record
        begins[outside] = 0
        ends[outside] = np.minimum(lengths[owners], self._query_length)[outside]
        for owner, begin, end in zip(
            owners.tolist(), begins.tolist(), ends.tolist()
        ):
            whole[owner] = slice(begin, end)
        return whole
