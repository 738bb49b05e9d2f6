"""Vectorised Smith-Waterman (linear gaps), row-wise over the target.

The dependence structure of the linear-gap recurrence lets the whole
row be computed with numpy primitives.  For row ``i`` let

    T[j] = max(0, H[i-1, j-1] + s(q_i, t_j), H[i-1, j] + g)

(the diagonal and vertical moves).  A horizontal gap chain entering
column ``j`` must start at some ``T[k]`` with ``k < j`` and costs
``g * (j - k)``, so

    H[i, j] = max(T[j],  max_{k<j} (T[k] + g*(j - k)))

(Chains starting from H rather than T add nothing: H is itself the
closure of T under chaining, and chains telescope.)  The kernel closes
a row over horizontal gaps in one of two ways, chosen from the target's
column count alone:

* **Prefix maximum** (targets below :data:`BOUNDED_CLOSURE_MIN_COLUMNS`):
  ``T[k] + g*(j-k) = (T[k] - g*k) + g*j``, so the inner maximum is a
  running prefix maximum of ``T[k] - g*k`` — one call to
  ``np.maximum.accumulate`` on int32 cells.  Few numpy calls per row,
  but the accumulate is a scalar loop over the whole row.
* **Bounded doubling** (longer targets): no cell exceeds
  ``max_score = max_alignment_score(len(query))``, so a chain longer
  than ``reach = max_score // |g|`` columns ends below zero and can
  never beat the zero clamp.  A Hillis-Steele max-plus scan with shifts
  ``1, 2, 4, ...`` covers every chain of length ``< 2^steps``, so
  ``steps = reach.bit_length()`` suffice (7 for a 200 bp query at
  ``g = -2``), each one vectorised add and max.  With no gap ramp the
  cells stay within ``[-max_score, max_score]``, which fits int16 for
  the usual query lengths: half the bytes per pass.

Both closures are bit-identical to ``align.reference.smith_waterman_score``
(property-tested in ``tests/test_kernel.py`` with the crossover forced
to either side); ``docs/KERNELS.md`` has the crossover sweep.  Each
query row therefore costs a handful of vector operations over the
target, which is what makes a pure-Python exhaustive Smith-Waterman
scan of a megabase collection feasible — the substitution DESIGN.md
records for the paper's C implementation.

Scanning a whole collection uses a :class:`TargetImage`: the sequences
concatenated with *sentinel runs* between them.  Sentinel positions
score so negatively that no alignment can touch one, and the runs are
long enough (see ``ScoringScheme.sentinel_run_length``) that no gap
chain can bridge two sequences.  Per-sequence best scores then fall
out of a segmented maximum over the column-best array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence as TypingSequence

import numpy as np

from repro.align.scoring import SENTINEL_CODE, ScoringScheme
from repro.errors import AlignmentError
from repro.sequences.alphabet import NUM_BASES

#: Targets with at least this many columns take the bounded doubling
#: closure; shorter ones the prefix maximum, whose fewer numpy calls per
#: row win there.  Break-even is ~1.4k columns for a 200 bp query under
#: the default scheme but ~3k for a 1 kb query or a 10-step scheme
#: (more doubling steps per row); from 4 096 columns doubling won in
#: every configuration swept (docs/KERNELS.md).
BOUNDED_CLOSURE_MIN_COLUMNS = 4096

# The prefix maximum's gap ramp reaches |gap| * columns in int32 cells.
_RAMP_LIMIT = 2**31 - 2**20


def _query_rows(query: np.ndarray) -> np.ndarray:
    """Map query codes onto profile row indices (wildcards share one)."""
    query = np.asarray(query)
    if query.size and int(query.max(initial=0)) >= SENTINEL_CODE:
        raise AlignmentError("query sequences cannot contain sentinels")
    return np.minimum(query, NUM_BASES).astype(np.int64)


def _bounded_closure(columns: int, scheme: ScoringScheme) -> bool:
    """Whether a target of ``columns`` is closed by bounded doubling.

    Targets whose prefix-maximum ramp would overflow int32 (gap
    penalties in the hundreds of thousands) take it at any length.
    """
    return (
        columns >= BOUNDED_CLOSURE_MIN_COLUMNS
        or abs(scheme.gap) * (columns + 1) >= _RAMP_LIMIT
    )


def scan_profile(
    target: np.ndarray, scheme: ScoringScheme, max_query_length: int
) -> np.ndarray:
    """The score profile the kernel scans ``target`` with.

    Below the crossover this is ``scheme.target_profile(target)``.  For
    bounded doubling the cells are int16 when every value the closure
    computes fits (``2*max_score + 2 < 2**15``), else int32, and the
    sentinel score is clamped to ``-(max_score + 1)``: enough to drive
    any diagonal move through a sentinel below the zero clamp.

    The profile serves queries of at most ``max_query_length`` bases.
    """
    target = np.asarray(target)
    if not _bounded_closure(target.shape[0], scheme):
        return scheme.target_profile(target)
    max_score = scheme.max_alignment_score(max_query_length)
    narrow = (
        2 * max_score + 2 < 2**15
        and min(scheme.mismatch, scheme.gap) > -(2**15)
    )
    return scheme.target_profile(
        target,
        sentinel_score=-(max_score + 1),
        dtype=np.int16 if narrow else np.int32,
    )


def _prefix_max_scores(
    rows: np.ndarray, profile: np.ndarray, gap: int
) -> np.ndarray:
    """Column-best scores, each row closed by a running prefix maximum."""
    target_length = profile.shape[1]
    col_best = np.zeros(target_length, dtype=np.int32)
    gap = np.int32(gap)
    gap_ramp = gap * np.arange(target_length, dtype=np.int32)
    previous = np.zeros(target_length + 1, dtype=np.int32)
    candidate = np.empty(target_length, dtype=np.int32)
    chain = np.empty(target_length, dtype=np.int32)
    for row in rows:
        scores = profile[row]
        np.add(previous[:-1], scores, out=candidate)
        np.maximum(candidate, previous[1:] + gap, out=candidate)
        np.maximum(candidate, 0, out=candidate)
        # Horizontal-gap closure via prefix maximum (see module docs).
        np.subtract(candidate, gap_ramp, out=chain)
        np.maximum.accumulate(chain, out=chain)
        chain[1:] = chain[:-1] + gap_ramp[1:]
        chain[0] = 0
        np.maximum(candidate, chain, out=candidate)
        previous[1:] = candidate
        np.maximum(col_best, candidate, out=col_best)
    return col_best


def _bounded_doubling_scores(
    rows: np.ndarray, profile: np.ndarray, gap: int, reach: int
) -> np.ndarray:
    """Column-best scores, each row closed by ``reach.bit_length()``
    max-plus doubling steps, in the profile's cell type."""
    target_length = profile.shape[1]
    cell = profile.dtype.type
    shifts = [
        1 << step
        for step in range(reach.bit_length())
        if 1 << step < target_length
    ]
    # Two row buffers, swapped per row; column 0 is H[i][-1] = 0.  All
    # slices are taken once here: per-call view creation would cost as
    # much as the arithmetic on images near the crossover.
    scratch = np.empty(target_length, dtype=cell)
    plans = []
    for buffer in (
        np.zeros(target_length + 1, dtype=cell),
        np.zeros(target_length + 1, dtype=cell),
    ):
        cells = buffer[1:]
        steps = [
            (cells[:-shift], cell(shift * gap), scratch[:-shift], cells[shift:])
            for shift in shifts
        ]
        plans.append((buffer[:-1], cells, steps))
    gap = cell(gap)
    zero = cell(0)
    col_best = np.zeros(target_length, dtype=cell)
    previous, current = plans
    for row in rows:
        diagonal_in, vertical_in, _ = previous
        _, cells, steps = current
        np.add(diagonal_in, profile[row], out=cells)
        np.add(vertical_in, gap, out=scratch)
        np.maximum(cells, scratch, out=cells)
        np.maximum(cells, zero, out=cells)
        for head, cost, shifted, tail in steps:
            # Read every head before any tail is raised: ``shifted`` is
            # a copy, so each step extends chains by exactly ``shift``.
            np.add(head, cost, out=shifted)
            np.maximum(tail, shifted, out=tail)
        np.maximum(col_best, cells, out=col_best)
        previous, current = current, previous
    return col_best


def column_best_scores(
    query: np.ndarray, profile: np.ndarray, scheme: ScoringScheme
) -> np.ndarray:
    """Best Smith-Waterman cell in every target column.

    Args:
        query: coded query (no sentinels).
        profile: target profile from ``ScoringScheme.target_profile``,
            or from :func:`scan_profile` built for queries at least as
            long as this one.
        scheme: the same scheme the profile was built with.

    Returns:
        ``col_best`` (int32) with ``col_best[j] = max_i H[i, j]``.
    """
    target_length = profile.shape[1]
    rows = _query_rows(query)
    if not rows.shape[0] or not target_length:
        return np.zeros(target_length, dtype=np.int32)
    if not _bounded_closure(target_length, scheme):
        return _prefix_max_scores(rows, profile, scheme.gap)
    reach = scheme.max_alignment_score(rows.shape[0]) // abs(scheme.gap)
    col_best = _bounded_doubling_scores(rows, profile, scheme.gap, reach)
    return col_best.astype(np.int32, copy=False)


def best_local_score(
    query: np.ndarray, target: np.ndarray, scheme: ScoringScheme
) -> int:
    """Best local-alignment score between two coded sequences."""
    query = np.asarray(query)
    profile = scan_profile(target, scheme, int(query.shape[0]))
    col_best = column_best_scores(query, profile, scheme)
    return int(col_best.max(initial=0))


@dataclass
class TargetImage:
    """A collection concatenated for whole-collection scanning.

    Attributes:
        codes: concatenated codes with sentinel runs between sequences.
        starts: per-sequence start offset in ``codes``.
        lengths: per-sequence length.
        max_query_length: largest query the sentinel runs protect against.
        profile: cached score profile (built lazily per scheme).
    """

    codes: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    max_query_length: int
    _profiles: dict[ScoringScheme, np.ndarray] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        sequence_codes: TypingSequence[np.ndarray],
        scheme: ScoringScheme,
        max_query_length: int,
    ) -> "TargetImage":
        """Concatenate a collection with safe sentinel separation.

        Raises:
            AlignmentError: if the collection is empty or the query
                bound is not positive.
        """
        if not sequence_codes:
            raise AlignmentError("cannot build a target image of nothing")
        if max_query_length <= 0:
            raise AlignmentError(
                f"max_query_length must be positive, got {max_query_length}"
            )
        run = scheme.sentinel_run_length(max_query_length)
        sentinel = np.full(run, SENTINEL_CODE, dtype=np.uint8)
        pieces: list[np.ndarray] = []
        starts = np.empty(len(sequence_codes), dtype=np.int64)
        lengths = np.empty(len(sequence_codes), dtype=np.int64)
        cursor = 0
        for ordinal, codes in enumerate(sequence_codes):
            codes = np.asarray(codes, dtype=np.uint8)
            starts[ordinal] = cursor
            lengths[ordinal] = codes.shape[0]
            pieces.append(codes)
            pieces.append(sentinel)
            cursor += codes.shape[0] + run
        return cls(np.concatenate(pieces), starts, lengths, max_query_length)

    def profile_for(self, scheme: ScoringScheme) -> np.ndarray:
        """The (cached) score profile of the concatenated target: the
        :func:`scan_profile` for queries up to ``max_query_length``."""
        profile = self._profiles.get(scheme)
        if profile is None:
            profile = scan_profile(self.codes, scheme, self.max_query_length)
            self._profiles[scheme] = profile
        return profile

    @property
    def num_sequences(self) -> int:
        return int(self.starts.shape[0])


def segment_best_scores(
    query: np.ndarray, image: TargetImage, scheme: ScoringScheme
) -> np.ndarray:
    """Best local score of ``query`` against every sequence in an image.

    Raises:
        AlignmentError: if the query exceeds the image's query bound
            (the sentinel runs would no longer be safe).
    """
    query = np.asarray(query)
    if query.shape[0] > image.max_query_length:
        raise AlignmentError(
            f"query length {query.shape[0]} exceeds the image bound "
            f"{image.max_query_length}; rebuild the image"
        )
    col_best = column_best_scores(query, image.profile_for(scheme), scheme)
    # Segmented max over [start, start + length) for each sequence.  The
    # flattened bound list alternates segment/gap; keep the even slots.
    bounds = np.empty(2 * image.num_sequences, dtype=np.int64)
    bounds[0::2] = image.starts
    bounds[1::2] = image.starts + image.lengths
    empty = image.lengths == 0
    results = np.zeros(image.num_sequences, dtype=np.int64)
    if bool(empty.all()):
        return results
    # reduceat cannot handle zero-width segments; give them width 1 and
    # zero the result afterwards (sentinel columns never score > 0).
    safe_bounds = bounds.copy()
    safe_bounds[1::2] = np.maximum(safe_bounds[1::2], safe_bounds[0::2] + 1)
    segment_max = np.maximum.reduceat(col_best, safe_bounds[:-1])[0::2]
    results[:] = segment_max
    results[empty] = 0
    return results
