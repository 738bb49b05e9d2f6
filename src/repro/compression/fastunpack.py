"""Vectorised variable-length code unpacking — the decode twin of
:mod:`repro.compression.fastpack`.

Query evaluation decodes millions of small Golomb/Elias codes; doing
that one ``read_bits`` call at a time dominates the coarse phase.  This
module block-decodes the posting lists of many intervals in one numpy
pass over their concatenated bytes:

1. **bit unpack** — the blobs become an aligned 32-bit window per byte
   offset, so any field of up to 25 bits can be read at any bit
   position with one gather;
2. **terminator location** — every unary run ends at the first zero
   bit at or after its start, found for *all* positions at once;
3. **transition tables** — for every bit position the table answers
   "if a Golomb (or gamma) code started here, where would the next
   code start";
4. **chain resolution** — the code boundaries of every list are the
   orbits of the list starts under the table's next-pointer, computed
   in O(log n) gather rounds by pointer doubling.

A list the tables cannot serve (a field wider than the window, a
stream that overruns its blob) is *flagged*, not guessed at: the caller
re-decodes it with the scalar codec, so the result — values or
exception — is bit-identical to
:meth:`~repro.compression.integer.IntegerCodec.decode_array`.

One table build serves the whole batch (per-position Golomb parameters,
one 2-D doubling pass), which is what makes tiny-df lists profitable to
vectorise: the
per-bit table cost is paid once per *query*, not once per list, and it
scales with the total compressed size rather than with the entry
count.  :func:`decode_docs_counts_flat` goes one step further and
returns lane-major *flat* arrays so a scorer can accumulate evidence
without ever materialising per-list objects.
"""

from __future__ import annotations

import numpy as np

from repro.compression.fastpack import _bit_lengths

__all__ = [
    "active_tier",
    "decode_docs_counts_flat",
]


def active_tier() -> str:
    """Name of the decode kernel, always ``"numpy"``.

    Benchmark result headers record this name; nothing in the package
    reads it.
    """
    return "numpy"


# -- bit-stream tables ------------------------------------------------

_ARANGE_CACHE = np.arange(0, dtype=np.int64)


def _shared_arange(size: int) -> np.ndarray:
    """A read-only view of a shared, growing ``arange`` buffer.

    Every stream build and ragged expansion needs ``arange(n)``; the
    buffer amortises that allocation across calls.  Callers must treat
    the view as immutable.
    """
    global _ARANGE_CACHE
    if _ARANGE_CACHE.shape[0] < size:
        _ARANGE_CACHE = np.arange(
            max(size, 2 * _ARANGE_CACHE.shape[0]), dtype=np.int64
        )
    return _ARANGE_CACHE[:size]



#: Extra sentinel slots on the extended next-zero table: an unclamped
#: Golomb pointer can overshoot ``total_bits`` by at most 1 (terminator)
#: + 63 (short field) + 1 (extension bit), so 65 slots of ``total_bits``
#: fixed point make every such gather safe without a clamping pass.
_POINTER_SLACK = 65


class _StreamTables:
    """Precomputed per-position views of one byte buffer.

    Attributes:
        total_bits: stream length in bits (zero padding included — the
            scalar reader serves padding bits too, so they are real).
        windows32: uint32 per byte offset, holding that byte and the
            next three big-endian (zero-padded past the end) — every
            batched read fits it.
        next_zero: per bit position, the index of the first zero bit at
            or after it (``total_bits`` when none remains).
        next_zero_ext: ``next_zero`` with ``_POINTER_SLACK`` extra
            sentinel slots.
    """

    __slots__ = ("total_bits", "windows32", "next_zero", "next_zero_ext")

    def __init__(self, raw: np.ndarray) -> None:
        num_bytes = raw.shape[0]
        total_bits = num_bytes * 8
        padded = np.zeros(num_bytes + 8, dtype=np.uint8)
        padded[:num_bytes] = raw
        windows32 = padded[0 : num_bytes + 1].astype(np.uint32)
        for lane in range(1, 4):
            windows32 <<= np.uint32(8)
            windows32 |= padded[lane : lane + num_bytes + 1]
        # next_zero[i] = index of the first zero bit at or after i.  It
        # is a step function that jumps at each zero bit, so build it by
        # run-length expansion: zero k covers the positions after zero
        # k-1 up to and including itself, and the total_bits sentinel
        # covers everything past the last zero (including slot
        # total_bits itself, which is why no separate sentinel store is
        # needed).  This is a prefix-sum-free construction — plain
        # cumsum over the bit array is several times slower, and so is
        # ``np.diff(..., prepend=...)``, whose internal concatenation
        # costs more than the subtraction it wraps.  The extended
        # table carries _POINTER_SLACK extra sentinel slots so the
        # unclamped Golomb pointer table can be gathered as-is.
        zeros = np.flatnonzero(np.unpackbits(raw) == 0)
        targets = np.empty(zeros.shape[0] + 1, dtype=np.int64)
        targets[:-1] = zeros
        targets[-1] = total_bits
        reps = np.empty_like(targets)
        reps[0] = targets[0] + 1
        np.subtract(targets[1:], targets[:-1], out=reps[1:])
        reps[-1] += _POINTER_SLACK
        next_zero_ext = np.repeat(targets, reps)
        self.total_bits = total_bits
        self.windows32 = windows32
        self.next_zero = next_zero_ext[: total_bits + 1]
        self.next_zero_ext = next_zero_ext


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each c in ``counts``."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return _shared_arange(total) - np.repeat(ends - counts, counts)


def _grouped_prefix_values(
    gaps: np.ndarray, group_sizes: np.ndarray
) -> np.ndarray:
    """Per group, ``cumsum(gaps + 1) - 1`` restarted at each group —
    the gap-to-ordinal rule (previous starts at -1, each code advances
    by gap + 1)."""
    if not gaps.shape[0]:
        return np.zeros(0, dtype=np.int64)
    steps = gaps + 1
    running = np.cumsum(steps)
    # Size-0 groups contribute nothing to the repeat; clamp their first
    # index so a trailing empty group cannot index past the last gap.
    group_first = np.minimum(
        np.cumsum(group_sizes) - group_sizes, gaps.shape[0] - 1
    )
    base = np.repeat(
        running[group_first] - steps[group_first], group_sizes
    )
    return running - base - 1


# -- batched decode ---------------------------------------------------

#: Upper bound on rows x columns of one pointer-doubling grid; batches
#: whose (lists x max codes) area exceeds it are split so a single
#: stop-word-dense interval cannot balloon memory.
_BATCH_GRID_LIMIT = 2_000_000

def _gather_lists(
    buffer: np.ndarray, byte_offsets: np.ndarray, lengths: np.ndarray
) -> tuple[_StreamTables, np.ndarray]:
    """One stream-table build over every list gathered back to back.

    List ``i`` is the ``lengths[i]`` bytes at ``byte_offsets[i]`` of
    ``buffer``; one ragged gather packs them in order.  Returns
    ``(tables, starts)``: list ``i`` occupies bits ``starts[i] * 8`` up
    to ``(starts[i] + lengths[i]) * 8`` of the shared stream.
    """
    starts = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    packed = buffer[
        np.repeat(byte_offsets - starts, lengths) + _shared_arange(total)
    ]
    return _StreamTables(packed), starts


def _grid_chunks(counts: np.ndarray) -> list[np.ndarray]:
    """Lane subsets whose doubling grids stay within the area cap.

    The common case — every lane in one grid — preserves lane order and
    costs one ``arange``; only oversized batches pay the sort + greedy
    split (grouping similar code counts so padding stays small).
    """
    lanes = counts.shape[0]
    width = int(counts.max(initial=0)) + 1
    if lanes * width <= _BATCH_GRID_LIMIT:
        return [np.arange(lanes, dtype=np.int64)]
    order = np.argsort(counts, kind="stable")
    chunks: list[np.ndarray] = []
    chunk: list[int] = []
    for slot in order.tolist():
        width = int(counts[slot]) + 1
        if chunk and (len(chunk) + 1) * width > _BATCH_GRID_LIMIT:
            chunks.append(np.array(chunk, dtype=np.int64))
            chunk = []
        chunk.append(slot)
    if chunk:
        chunks.append(np.array(chunk, dtype=np.int64))
    return chunks


def _chain_grid(
    next_table: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-lane code boundaries by 2-D pointer doubling.

    Row ``i`` holds the first ``counts[i] + 1`` chained positions from
    ``starts[i]`` (padded to the widest lane with fixed-point noise —
    callers index only each lane's own prefix).

    Short, numerous lanes step column by column — that evaluates the
    table only at visited positions, O(width) tiny gathers.  Doubling
    squares the whole table per round, O(log width) stream-sized
    gathers, and wins only when one lane is much longer than the
    stream is wide.
    """
    lanes = starts.shape[0]
    width = int(counts.max(initial=0)) + 1
    grid = np.empty((lanes, width), dtype=np.int64)
    grid[:, 0] = starts
    if width * 128 < next_table.shape[0]:
        for col in range(1, width):
            grid[:, col] = next_table[grid[:, col - 1]]
        return grid
    filled = 1
    jump = next_table
    while filled < width:
        take = min(filled, width - filled)
        grid[:, filled : filled + take] = jump[grid[:, :take]]
        filled += take
        if filled < width:
            jump = jump[jump]
    return grid


def _section_a_byte_bounds(
    dfs: np.ndarray,
    parameters: np.ndarray,
    cfs: np.ndarray,
    universe: int,
) -> np.ndarray:
    """Provable per-list byte bound on the section-A prefix.

    For a *valid* list the document gaps sum below the universe size,
    which caps the total unary length at ``df + universe / parameter``;
    remainders cost ``rb`` bits each and the gamma counts at most
    ``df + 2 * df * log2(cf / df)`` bits (concavity of ``log``).  The
    batch decoder clips each blob to this bound so the per-bit tables
    never pay for the offset section that index files written before
    offsets were dropped still carry after the entries.
    A corrupt list that overruns the bound simply decodes past the
    clipped end, fails validation, and falls back to the scalar codec.
    """
    rb = _bit_lengths(np.maximum(parameters - 1, 0))
    unary = dfs + universe // np.maximum(parameters, 1)
    safe_dfs = np.maximum(dfs, 1)
    ratio = np.maximum(cfs, safe_dfs) / safe_dfs
    gamma = dfs + 2 * np.ceil(
        safe_dfs * np.log2(ratio)
    ).astype(np.int64)
    bound_bits = unary + dfs * rb + gamma
    return (bound_bits >> 3) + 2


def _lane_read_constants(
    parameters: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Per-lane read constants for the 32-bit Golomb field reads.

    Returns ``(rb, narrow, short, thresholds)``: remainder bit widths;
    which lanes those widths let the 32-bit window serve (wide lanes
    must be excluded at lane level — their other constants are pinned
    to safe values so the shared passes stay branch-free); the
    short-field widths; and the truncated-binary thresholds as uint32
    (pinned to a large sentinel when ``rb`` is 0 or the lane is wide,
    so the extension test always fails there).
    """
    rb = _bit_lengths(np.maximum(parameters - 1, 0))
    narrow = rb <= _TABLE_MAX_BITS
    short = np.where(narrow & (rb > 0), rb - 1, 0).astype(np.uint8)
    thresholds = np.where(
        narrow & (rb > 0),
        (np.int64(1) << np.minimum(rb, _TABLE_MAX_BITS)) - parameters,
        np.int64(1) << 30,
    ).astype(np.uint32)
    return rb, narrow, short, thresholds


#: Widest remainder field the 32-bit pointer-table reads can serve
#: (up to 7 offset bits + the field must fit the 32-bit window).  A
#: lane with a wider document-gap parameter is flagged for the scalar
#: fallback — real posting lists have single-digit ``rb``.
_TABLE_MAX_BITS = 25

#: Doubled-threshold sentinel for the pointer-table pass: above any
#: real doubled threshold (< 2**26), so pinned lanes never extend.
_TABLE_SENTINEL = np.uint32(1) << np.uint32(31)


def _golomb_next_table(
    tables: _StreamTables,
    short_pos: np.ndarray,
    thr_pos: np.ndarray,
) -> np.ndarray:
    """Where the next code starts if a Golomb code began at each bit.

    Only the *pointer* is computed here — values and validity are
    evaluated later at the O(entries) chain heads, so the O(bits) pass
    stays as thin as possible: 32-bit window reads (``short_pos`` must
    be pinned to :data:`_TABLE_MAX_BITS`-safe values), shift-only field
    extraction, and a deliberately UNCLAMPED result — positions past
    the stream overshoot ``total_bits`` by at most
    :data:`_POINTER_SLACK`, which the extended next-zero table absorbs.
    Callers that chain this table directly must clamp it themselves.
    """
    tail = tables.next_zero + 1
    full = tables.windows32[tail >> 3]
    # Shift the field's leading bits off the top, then align: cheaper
    # than subtract + shift + mask, and needs no mask array at all.
    full <<= (tail & 7).astype(np.uint32)
    full >>= np.uint32(31) - short_pos
    # full >> 1 >= threshold  <=>  full >= 2 * threshold, so the caller
    # passes doubled thresholds and the short/extended split costs one
    # comparison on the unshifted field.
    extended = full >= thr_pos
    np.add(tail, short_pos, out=tail)
    np.add(tail, extended, out=tail)
    return tail


def _entry_next_from(
    tables: _StreamTables, g_next: np.ndarray
) -> np.ndarray:
    """Compose the gamma pointer directly onto a Golomb pointer table.

    A gamma code is the unary length then that many suffix bits, so its
    pointer is pure arithmetic on the terminator position — evaluating
    it only at the Golomb pointers (rather than building a full gamma
    table and gathering) keeps this a single extended-table gather plus
    in-place passes.  The result is clamped to ``[0, total_bits]`` so
    every downstream chain stays in bounds, and position
    ``total_bits`` maps back to itself (the fixed point).
    """
    out = tables.next_zero_ext[g_next]
    out += out
    out += 1
    out -= g_next
    np.minimum(out, tables.total_bits, out=out)
    if tables.total_bits < 64:
        # In-bounds pointers always compose to a non-negative position;
        # only an overshot pointer into a stream shorter than the
        # overshoot slack can go negative, so the lower clamp is only
        # ever needed for tiny streams.
        np.maximum(out, 0, out=out)
    return out


def _golomb_at(
    tables: _StreamTables,
    heads: np.ndarray,
    parameters: np.ndarray,
    short: np.ndarray,
    thresholds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(value, valid) of the Golomb codes at selected head positions.

    The per-lane constant arrays must already be expanded per head.
    Works on O(entries)-sized arrays — the expensive full-stream pass
    only ever computes pointers.  Reads go through the 32-bit windows:
    callers guarantee (via the lane-level ``narrow`` gate) that only
    lanes whose remainder fields fit them can ever count as decoded,
    so no per-head width check is needed here.
    """
    total_bits = tables.total_bits
    terminator = tables.next_zero_ext[heads]
    tail = terminator + 1
    quotient = terminator - heads
    full = tables.windows32[tail >> 3]
    full <<= (tail & 7).astype(np.uint32)
    full >>= np.uint32(31) - short
    first = full >> np.uint32(1)
    extended = first >= thresholds
    remainder = np.where(extended, full - thresholds, first).astype(np.int64)
    value = quotient * parameters + remainder
    valid = (
        (terminator < total_bits)
        & (tail + short + extended <= total_bits)
    )
    return value, valid


def _gamma_counts_at(
    tables: _StreamTables, mids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(count, valid) of the gamma codes at selected positions.

    The wire stores ``count - 1``; gamma encodes ``value + 1``, so the
    decoded count is directly ``(1 << length) | suffix``.  Reads go
    through the 32-bit windows, so a suffix longer than
    :data:`_TABLE_MAX_BITS` (a count of 2**25 or more — far past any
    real occurrence count) is invalid here and sends its lane to the
    scalar fallback, same as truncation.
    """
    total_bits = tables.total_bits
    terminator = tables.next_zero_ext[mids]
    # mids may overshoot the stream (unclamped pointer table), making
    # the nominal length negative; clip so the shift arithmetic stays
    # defined — the validity test rejects those positions regardless.
    length = terminator - mids
    readable = np.clip(length, 0, _TABLE_MAX_BITS)
    tail = terminator + 1
    masks = (np.uint32(1) << readable.astype(np.uint32)) - np.uint32(1)
    shifts = (np.minimum(32 - readable, 31) - (tail & 7)).astype(np.uint32)
    suffix = (tables.windows32[tail >> 3] >> shifts) & masks
    count = (np.int64(1) << readable) | suffix.astype(np.int64)
    valid = (
        (terminator < total_bits)
        & (mids + 2 * length + 1 <= total_bits)
        & (length <= _TABLE_MAX_BITS)
    )
    return count, valid


def _repeat_with_sentinel(
    values: np.ndarray, repeats: np.ndarray, size: int, sentinel
) -> np.ndarray:
    """Per-position array: per-lane ``values`` repeated to ``size``
    positions plus one trailing ``sentinel`` (the fixed-point slot)."""
    out = np.empty(size + 1, dtype=values.dtype)
    out[size] = sentinel
    out[:size] = np.repeat(values, repeats)
    return out


def _batch_entries(
    tables: _StreamTables,
    lane_starts: np.ndarray,
    dfs: np.ndarray,
    parameters: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode every lane's (Golomb gap, gamma count) entries at once.

    The full-stream work is pointer-only (one Golomb next table with
    per-position parameters repeated from the per-lane values, one
    arithmetic gamma next table, one composition); values, counts and
    validity are then evaluated only at each lane's chain heads, so the
    per-bit cost is paid once per batch and stays independent of how
    the entries distribute across lists.

    Returns ``(gaps, counts, ends, ok)``: flat lane-major gap/count
    arrays (lanes with ``ok`` False hold garbage in their segment),
    each lane's bit position after its last entry, and the per-lane
    validity flags.
    """
    total_bits = tables.total_bits
    lanes = dfs.shape[0]
    bits_per = lengths * 8
    rb, narrow, short, thresholds = _lane_read_constants(parameters)
    # The pointer pass compares the undivided field against doubled
    # thresholds (full >> 1 >= thr <=> full >= 2 * thr); the pinned
    # sentinel doubles to _TABLE_SENTINEL, above any 26-bit field.
    g_next = _golomb_next_table(
        tables,
        _repeat_with_sentinel(short, bits_per, total_bits, 0),
        _repeat_with_sentinel(
            thresholds + thresholds, bits_per, total_bits, _TABLE_SENTINEL
        ),
    )
    entry_next = _entry_next_from(tables, g_next)

    total = int(dfs.sum())
    ok = narrow.copy()
    chunks = _grid_chunks(dfs)
    if len(chunks) == 1:
        # The common case: every lane in one grid, in lane order.  The
        # flat outputs are lane-major, so the evaluated head arrays ARE
        # the outputs — no scatter, and per-head constants come from
        # cheap repeats instead of fancy gathers.
        grid = _chain_grid(entry_next, lane_starts, dfs)
        width = grid.shape[1]
        rows = np.repeat(_shared_arange(lanes), dfs)
        heads = grid.ravel()[rows * width + _ragged_arange(dfs)]
        gaps, g_ok = _golomb_at(
            tables, heads,
            np.repeat(parameters, dfs), np.repeat(short, dfs),
            np.repeat(thresholds, dfs),
        )
        counts, c_ok = _gamma_counts_at(tables, g_next[heads])
        good = g_ok & c_ok
        if not good.all():
            ok &= np.bincount(rows[~good], minlength=lanes) == 0
        ends = grid[_shared_arange(lanes), dfs]
        return gaps, counts, ends, ok

    gaps = np.empty(total, dtype=np.int64)
    counts = np.empty(total, dtype=np.int64)
    ends = lane_starts.astype(np.int64).copy()
    lane_first = np.cumsum(dfs) - dfs
    for subset in chunks:
        sub_dfs = dfs[subset]
        grid = _chain_grid(entry_next, lane_starts[subset], sub_dfs)
        width = grid.shape[1]
        rows = np.repeat(
            np.arange(subset.shape[0], dtype=np.int64), sub_dfs
        )
        cols = _ragged_arange(sub_dfs)
        heads = grid.ravel()[rows * width + cols]
        lids = subset[rows]
        gap_values, g_ok = _golomb_at(
            tables, heads, parameters[lids], short[lids],
            thresholds[lids],
        )
        count_values, c_ok = _gamma_counts_at(tables, g_next[heads])
        dest = np.repeat(lane_first[subset], sub_dfs) + cols
        gaps[dest] = gap_values
        counts[dest] = count_values
        good = g_ok & c_ok
        if not good.all():
            ok[subset] &= (
                np.bincount(rows[~good],
                            minlength=subset.shape[0]) == 0
            )
        ends[subset] = grid.ravel()[
            np.arange(subset.shape[0], dtype=np.int64) * width + sub_dfs
        ]
    return gaps, counts, ends, ok


def decode_docs_counts_flat(
    buffer: np.ndarray,
    byte_offsets: np.ndarray,
    lengths: np.ndarray,
    dfs: np.ndarray,
    parameters: np.ndarray,
    cfs: np.ndarray | None = None,
    universe: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-decode many section-A streams into flat lane-major arrays.

    List ``i`` is the ``lengths[i]`` bytes at ``byte_offsets[i]`` of
    ``buffer`` (a uint8 array — an index file's memory map serves
    as-is).  Returns ``(docs, counts, ok)`` where ``docs``/``counts``
    concatenate every list's entries in order (list ``i`` occupies
    ``cumsum(dfs)[i-1] : cumsum(dfs)[i]``) and ``ok`` flags the lists
    the vector pass decoded.  A list with ``ok`` False — overflow code,
    truncation, a stream that ran past its own bytes — holds garbage in
    its segment: the caller must re-decode it with the scalar codec,
    which reproduces the pure path's values or exception exactly.

    When ``cfs`` (per-list total occurrence counts) and ``universe``
    (the document count) are given, each list is clipped to its
    provable entry-section bound as it is gathered
    (:func:`_section_a_byte_bounds`), so the per-bit tables skip an old
    file's offset section entirely.

    The flat layout is the point: a scorer can weight and accumulate
    the whole batch with a handful of array ops and never materialise a
    per-list object.
    """
    num_lists = dfs.shape[0]
    total = int(dfs.sum()) if num_lists else 0
    if not total:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.ones(num_lists, dtype=bool),
        )

    if cfs is not None and universe is not None:
        lengths = np.minimum(
            lengths, _section_a_byte_bounds(dfs, parameters, cfs, universe)
        )
    tables, starts = _gather_lists(buffer, byte_offsets, lengths)
    gaps, counts, ends, ok = _batch_entries(
        tables, starts * 8, dfs, parameters, lengths
    )
    # Positions only ever advance, so "the last entry ended inside this
    # list's own bytes" bounds every intermediate position too: a stream
    # that leaks into its neighbour is caught here and sent to the
    # scalar fallback.  (With clipped lists the check is stricter than
    # the full-list one — never looser — so identity is preserved.)
    ok &= ends <= (starts + lengths) * 8
    docs = _grouped_prefix_values(gaps, dfs)
    return docs, counts, ok
