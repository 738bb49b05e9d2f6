"""Inverted-index construction and the in-memory index.

Building is a single vectorised pass: every (interval id, sequence
ordinal, offset) triple in the collection goes into three flat numpy
arrays, one lexicographic sort groups them, and each group is handed to
the postings codec.  This mirrors the sort-based inversion used for the
paper's on-disk indexes, scaled to in-memory collections.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Sequence as TypingSequence

import numpy as np

from repro.errors import (
    CodecValueError,
    CorruptionError,
    IndexParameterError,
)
from repro.index.intervals import IntervalExtractor
from repro.index.postings import PostingEntry, PostingsCodec, PostingsContext
from repro.instrumentation.instruments import NULL_INSTRUMENTS, coalesce
from repro.sequences.record import Sequence

_LOG = logging.getLogger(__name__)

#: Lists :meth:`IndexReader.read_lists` reads per deadline check: small
#: enough to bound overshoot past a deadline, large enough to keep the
#: vectorised batch decode effective.
READ_CHUNK = 16


@dataclass(frozen=True)
class IndexParameters:
    """Everything that determines an index's shape.

    Attributes:
        interval_length: the fixed substring (k-mer) length.
        stride: window stride; 1 = overlapping, interval_length =
            non-overlapping.
        doc_codec / count_codec / position_codec: integer-codec names
            for the three posting fields.
        include_positions: store occurrence offsets (needed for
            diagonal coarse scoring; drop for a smaller index).
    """

    interval_length: int = 8
    stride: int = 1
    doc_codec: str = "golomb"
    count_codec: str = "gamma"
    position_codec: str = "golomb"
    include_positions: bool = True

    def make_extractor(self) -> IntervalExtractor:
        """The extractor these parameters describe."""
        return IntervalExtractor(self.interval_length, self.stride)

    def make_codec(self) -> PostingsCodec:
        """The postings codec these parameters describe."""
        return PostingsCodec(
            doc_codec=self.doc_codec,
            count_codec=self.count_codec,
            position_codec=self.position_codec,
            include_positions=self.include_positions,
        )

    def describe(self) -> dict[str, object]:
        """Parameters as a plain dict (for index headers)."""
        return {
            "interval_length": self.interval_length,
            "stride": self.stride,
            "doc_codec": self.doc_codec,
            "count_codec": self.count_codec,
            "position_codec": self.position_codec,
            "include_positions": self.include_positions,
        }

    @classmethod
    def from_description(cls, description: dict[str, object]) -> "IndexParameters":
        """Rebuild parameters from :meth:`describe` output."""
        return cls(
            interval_length=int(description["interval_length"]),  # type: ignore[arg-type]
            stride=int(description["stride"]),  # type: ignore[arg-type]
            doc_codec=str(description["doc_codec"]),
            count_codec=str(description["count_codec"]),
            position_codec=str(description["position_codec"]),
            include_positions=bool(description["include_positions"]),
        )


@dataclass(frozen=True)
class CollectionInfo:
    """Identifiers and lengths of the indexed collection.

    This is the only collection knowledge the index itself retains; the
    residues live in a :class:`~repro.index.store.SequenceStore` (or in
    memory) and are touched only by the fine search.
    """

    identifiers: tuple[str, ...]
    lengths: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        lengths = np.ascontiguousarray(self.lengths, dtype=np.int64)
        lengths.setflags(write=False)
        object.__setattr__(self, "lengths", lengths)
        if len(self.identifiers) != int(lengths.shape[0]):
            raise IndexParameterError(
                "identifier and length counts disagree: "
                f"{len(self.identifiers)} vs {lengths.shape[0]}"
            )

    @classmethod
    def from_sequences(cls, sequences: TypingSequence[Sequence]) -> "CollectionInfo":
        return cls(
            tuple(record.identifier for record in sequences),
            np.array([len(record) for record in sequences], dtype=np.int64),
        )

    @property
    def num_sequences(self) -> int:
        return len(self.identifiers)

    @property
    def total_length(self) -> int:
        return int(self.lengths.sum())

    def context(self) -> PostingsContext:
        """The statistics the postings codec derives parameters from."""
        return PostingsContext(self.num_sequences, self.total_length)


@dataclass(frozen=True)
class VocabEntry:
    """One vocabulary row: an interval and its compressed posting list."""

    interval_id: int
    df: int  # sequences containing the interval
    cf: int  # total occurrences across the collection
    data: bytes = field(repr=False)


@dataclass(frozen=True)
class ResolvedLists:
    """Where a batch of requested posting lists lives, in request order.

    ``dfs[i]`` is interval ``interval_ids[i]``'s entry count (0 when it
    is absent or not read) and ``cfs[i]`` its occurrence count; its
    compressed list is the ``lengths[i]`` bytes at ``offsets[i]`` of
    the uint8 array ``buffer`` — for an on-disk index, the file's
    memory map itself.
    """

    interval_ids: np.ndarray
    dfs: np.ndarray
    cfs: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    buffer: np.ndarray = field(repr=False)

    @classmethod
    def from_entries(
        cls,
        interval_ids: TypingSequence[int],
        entries: TypingSequence[VocabEntry | None],
    ) -> "ResolvedLists":
        """Resolved lists over vocabulary rows (``None`` = absent),
        their blobs joined into one buffer."""
        present = [entry for entry in entries if entry is not None]
        lengths = np.array(
            [0 if entry is None else len(entry.data) for entry in entries],
            dtype=np.int64,
        )
        return cls(
            np.asarray(interval_ids, dtype=np.int64),
            np.array(
                [0 if entry is None else entry.df for entry in entries],
                dtype=np.int64,
            ),
            np.array(
                [0 if entry is None else entry.cf for entry in entries],
                dtype=np.int64,
            ),
            np.cumsum(lengths) - lengths,
            lengths,
            np.frombuffer(
                b"".join(entry.data for entry in present), dtype=np.uint8
            ),
        )

    def entry(self, slot: int) -> VocabEntry | None:
        """The vocabulary row at ``slot`` (``None`` when absent)."""
        if not self.dfs[slot]:
            return None
        start = int(self.offsets[slot])
        return VocabEntry(
            int(self.interval_ids[slot]),
            int(self.dfs[slot]),
            int(self.cfs[slot]),
            bytes(self.buffer[start : start + int(self.lengths[slot])]),
        )

    def single(self, slot: int) -> "ResolvedLists":
        """The one list at ``slot``, over the same buffer."""
        part = slice(slot, slot + 1)
        return ResolvedLists(
            self.interval_ids[part],
            self.dfs[part],
            self.cfs[part],
            self.offsets[part],
            self.lengths[part],
            self.buffer,
        )


class IndexReader(ABC):
    """Common read API of the in-memory and on-disk indexes."""

    params: IndexParameters
    collection: CollectionInfo

    #: Which coarse backend this reader serves — engines dispatch their
    #: ranker on this attribute (see :mod:`repro.coarse_backends`).
    coarse_backend = "inverted"

    @abstractmethod
    def lookup_entry(self, interval_id: int) -> VocabEntry | None:
        """The vocabulary row for an interval, or None if absent."""

    @abstractmethod
    def interval_ids(self) -> Iterator[int]:
        """All indexed interval ids in ascending order."""

    @property
    @abstractmethod
    def vocabulary_size(self) -> int:
        """Number of distinct intervals indexed."""

    def __contains__(self, interval_id: int) -> bool:
        return self.lookup_entry(interval_id) is not None

    @property
    def instruments(self):
        """Observability sink (shared no-op until attached)."""
        return getattr(self, "_instruments", NULL_INSTRUMENTS)

    def set_instruments(self, instruments) -> None:
        """Attach an :class:`~repro.instrumentation.Instruments` sink.

        The reader reports decode volume (``index.postings_decoded``)
        and quarantined lists (``index.quarantined_intervals``).
        Passing ``None`` detaches (reverts to the shared no-op).
        """
        self._instruments = coalesce(instruments)

    @property
    def codec(self) -> PostingsCodec:
        """The postings codec, built once and cached."""
        codec = getattr(self, "_codec_cache", None)
        if codec is None:
            codec = self.params.make_codec()
            self._codec_cache = codec
        return codec

    @property
    def context(self) -> PostingsContext:
        """The collection statistics context, built once and cached."""
        context = getattr(self, "_context_cache", None)
        if context is None:
            context = self.collection.context()
            self._context_cache = context
        return context

    def read_lists(
        self,
        interval_ids: TypingSequence[int],
        *,
        positions: bool = False,
        skip: set[int] | None = None,
        deadline=None,
    ) -> tuple[np.ndarray, ...]:
        """Resolve and decode many posting lists as flat arrays.

        Returns ``(lens, docs, counts)``, or ``(lens, docs, counts,
        offsets)`` with ``positions=True``.  ``lens[i]`` is interval
        ``i``'s entry count: 0 when it is absent, in ``skip``, or not
        reached before ``deadline`` expired.  ``docs``/``counts``
        concatenate the entries in request order, so interval ``i``
        occupies ``cumsum(lens)[i-1] : cumsum(lens)[i]``; ``offsets``
        concatenates each entry's occurrence offsets, ``counts`` long
        each.  This is the one read path of the coarse phase.

        Args:
            skip: the caller's quarantine set.  Its intervals are not
                read; a :class:`~repro.errors.CorruptionError` while
                resolving or decoding an interval adds it (logged once,
                counted as ``index.quarantined_intervals``) instead of
                raising, and a batch that fails is re-read list by list
                so healthy neighbours survive.  ``None`` raises.
            deadline: a bounded
                :class:`~repro.search.deadline.Deadline` is checked
                before every :data:`READ_CHUNK` lists.
        """
        interval_ids = np.asarray(interval_ids, dtype=np.int64)
        total = interval_ids.shape[0]
        if deadline is None or not deadline.bounded:
            return self._read_chunk(interval_ids, positions, skip)
        parts = []
        for start in range(0, total, READ_CHUNK):
            if deadline.expired():
                break
            parts.append(
                self._read_chunk(
                    interval_ids[start : start + READ_CHUNK], positions, skip
                )
            )
        return _concatenate_lists(parts, positions, total)

    def _read_chunk(self, interval_ids, positions, skip):
        resolved = self.resolve(interval_ids, skip=skip)
        try:
            return self.decode_lists(resolved, positions=positions)
        except CorruptionError:
            if skip is None:
                raise
        # Re-read list by list: only the damaged ones go.
        parts = []
        for slot, interval_id in enumerate(interval_ids.tolist()):
            try:
                parts.append(
                    self.decode_lists(
                        resolved.single(slot), positions=positions
                    )
                )
            except CorruptionError as exc:
                self._quarantine(skip, interval_id, exc)
                parts.append(_concatenate_lists([], positions, 1))
        return _concatenate_lists(parts, positions, len(interval_ids))

    def resolve(
        self,
        interval_ids: TypingSequence[int],
        *,
        skip: set[int] | None = None,
    ) -> ResolvedLists:
        """The resolve step of :meth:`read_lists`: where each interval's
        posting list lives, found with one storage resolve call.

        ``skip`` follows :meth:`read_lists`: its ids read as absent, and
        when the one call raises :class:`~repro.errors.CorruptionError`
        the ids are resolved one by one so only the damaged ones are
        quarantined; ``None`` raises.
        """
        interval_ids = np.asarray(interval_ids, dtype=np.int64)
        if skip is None:
            return self._resolve(interval_ids, ())
        try:
            return self._resolve(interval_ids, skip)
        except CorruptionError:
            pass  # resolve id by id: only the damaged ones go
        for interval_id in interval_ids.tolist():
            if interval_id not in skip:
                try:
                    self._resolve(np.array([interval_id]), skip)
                except CorruptionError as exc:
                    self._quarantine(skip, interval_id, exc)
        return self._resolve(interval_ids, skip)

    def _resolve(
        self, interval_ids: np.ndarray, skip: Collection[int]
    ) -> ResolvedLists:
        """One storage resolve call: ids in ``skip`` read as absent.

        The default looks each id up with :meth:`lookup_entry`; an
        on-disk index resolves the whole array at once.
        """
        return ResolvedLists.from_entries(
            interval_ids,
            [
                None if interval_id in skip
                else self.lookup_entry(interval_id)
                for interval_id in interval_ids.tolist()
            ],
        )

    def _quarantine(
        self, skip: set[int], interval_id: int, exc: CorruptionError
    ) -> None:
        _LOG.warning(
            "quarantining corrupt posting list for interval %d: %s",
            interval_id,
            exc,
        )
        skip.add(interval_id)
        self.instruments.count("index.quarantined_intervals")

    def decode_lists(
        self, resolved: ResolvedLists, *, positions: bool = False
    ) -> tuple[np.ndarray, ...]:
        """The decode step of :meth:`read_lists`: every resolved list
        through one decoder call over ``resolved.buffer``.  Returns
        ``(lens, docs, counts)``, plus ``offsets`` with
        ``positions=True``."""
        lens = resolved.dfs
        present = np.flatnonzero(lens)
        fields = (lens, resolved.cfs, resolved.offsets, resolved.lengths)
        if present.shape[0] < lens.shape[0]:
            fields = tuple(values[present] for values in fields)
        dfs, cfs, offsets, lengths = fields
        if positions:
            decoded = self.codec.decode_postings_flat(
                resolved.buffer, offsets, lengths, dfs, cfs, self.context
            )
        else:
            decoded = self.codec.decode_docs_counts_flat(
                resolved.buffer, offsets, lengths, dfs, self.context, cfs=cfs
            )
        self.instruments.count("index.postings_decoded", present.shape[0])
        return (lens, *decoded)

    def docs_counts_flat_from_entries(
        self,
        interval_ids: TypingSequence[int],
        entries: TypingSequence[VocabEntry | None],
        positions: bool = False,
    ) -> tuple[np.ndarray, ...]:
        """:meth:`decode_lists` over already looked-up entries
        (``None`` = nothing to read)."""
        return self.decode_lists(
            ResolvedLists.from_entries(interval_ids, entries),
            positions=positions,
        )

    @property
    def pointer_count(self) -> int:
        """Total postings (sequence pointers) across the vocabulary."""
        return int(self.resolve(list(self.interval_ids())).dfs.sum())

    @property
    def compressed_bytes(self) -> int:
        """Total bytes of compressed posting data."""
        return int(self.resolve(list(self.interval_ids())).lengths.sum())


def _concatenate_lists(
    parts: list[tuple[np.ndarray, ...]], positions: bool, total: int
) -> tuple[np.ndarray, ...]:
    """Join :meth:`IndexReader.read_lists` pieces read in request
    order; ``lens`` is zero-padded to ``total`` lists."""
    lens = np.zeros(total, dtype=np.int64)
    if parts:
        read = np.concatenate([part[0] for part in parts])
        lens[: read.shape[0]] = read
    width = 4 if positions else 3
    empty = np.empty(0, dtype=np.int64)
    return (lens,) + tuple(
        np.concatenate([part[field] for part in parts]) if parts else empty
        for field in range(1, width)
    )


class InvertedIndex(IndexReader):
    """In-memory interval index: vocabulary dict over compressed lists."""

    def __init__(
        self,
        params: IndexParameters,
        collection: CollectionInfo,
        vocabulary: dict[int, VocabEntry],
    ) -> None:
        self.params = params
        self.collection = collection
        self._vocabulary = vocabulary

    def lookup_entry(self, interval_id: int) -> VocabEntry | None:
        return self._vocabulary.get(interval_id)

    def interval_ids(self) -> Iterator[int]:
        return iter(sorted(self._vocabulary))

    @property
    def vocabulary_size(self) -> int:
        return len(self._vocabulary)

    def entries(self) -> Iterator[VocabEntry]:
        """Vocabulary rows in ascending interval-id order."""
        for interval_id in sorted(self._vocabulary):
            yield self._vocabulary[interval_id]

    def replace_vocabulary(
        self, vocabulary: dict[int, VocabEntry]
    ) -> "InvertedIndex":
        """A new index sharing parameters/collection with new rows."""
        return InvertedIndex(self.params, self.collection, vocabulary)


def build_index(
    sequences: TypingSequence[Sequence],
    params: IndexParameters | None = None,
) -> InvertedIndex:
    """Index a collection of sequences.

    Args:
        sequences: the collection, in the ordinal order queries will
            report.
        params: index shape; defaults to overlapping length-8 intervals
            with Golomb/gamma/Golomb coding.

    Raises:
        IndexParameterError: if the collection is empty.
    """
    if params is None:
        params = IndexParameters()
    if not sequences:
        raise IndexParameterError("cannot index an empty collection")

    collection = CollectionInfo.from_sequences(sequences)
    extractor = params.make_extractor()
    codec = params.make_codec()
    context = collection.context()

    id_chunks: list[np.ndarray] = []
    doc_chunks: list[np.ndarray] = []
    position_chunks: list[np.ndarray] = []
    for ordinal, record in enumerate(sequences):
        ids, positions = extractor.extract(record.codes)
        if not ids.shape[0]:
            continue
        id_chunks.append(ids)
        doc_chunks.append(np.full(ids.shape[0], ordinal, dtype=np.int64))
        position_chunks.append(positions)

    vocabulary: dict[int, VocabEntry] = {}
    if id_chunks:
        all_ids = np.concatenate(id_chunks)
        all_docs = np.concatenate(doc_chunks)
        all_positions = np.concatenate(position_chunks)
        order = np.lexsort((all_positions, all_docs, all_ids))
        all_ids = all_ids[order]
        all_docs = all_docs[order]
        all_positions = all_positions[order]

        vocabulary = _bulk_encode_vocabulary(
            all_ids, all_docs, all_positions, params, context
        )
        if vocabulary is None:
            vocabulary = _loop_encode_vocabulary(
                all_ids, all_docs, all_positions, codec, context
            )
    return InvertedIndex(params, collection, vocabulary)


def _loop_encode_vocabulary(
    all_ids: np.ndarray,
    all_docs: np.ndarray,
    all_positions: np.ndarray,
    codec,
    context,
) -> dict[int, VocabEntry]:
    """Per-interval encoding loop — the reference path and the
    fallback for non-default codec configurations."""
    vocabulary: dict[int, VocabEntry] = {}
    unique_ids, id_starts = np.unique(all_ids, return_index=True)
    id_bounds = np.append(id_starts, all_ids.shape[0])
    for slot, interval in enumerate(unique_ids):
        lo, hi = int(id_bounds[slot]), int(id_bounds[slot + 1])
        docs = all_docs[lo:hi]
        positions = all_positions[lo:hi]
        unique_docs, doc_starts = np.unique(docs, return_index=True)
        doc_bounds = np.append(doc_starts, docs.shape[0])
        entries = [
            PostingEntry(
                int(unique_docs[i]),
                positions[int(doc_bounds[i]) : int(doc_bounds[i + 1])],
            )
            for i in range(unique_docs.shape[0])
        ]
        data = codec.encode(entries, context)
        vocabulary[int(interval)] = VocabEntry(
            int(interval), len(entries), hi - lo, data
        )
    return vocabulary


def _bulk_encode_vocabulary(
    all_ids: np.ndarray,
    all_docs: np.ndarray,
    all_positions: np.ndarray,
    params: IndexParameters,
    context,
) -> dict[int, VocabEntry] | None:
    """Whole-index vectorised encoding.

    Computes every posting list's gap codes in flat array passes and
    packs them into one buffer with per-interval byte alignment, so
    each interval's slice is bit-identical to encoding it alone.
    Returns None when the codec configuration has no vector path or a
    code overflows the vector window (both fall back to the loop).
    """
    if (
        params.doc_codec != "golomb"
        or params.count_codec != "gamma"
        or (params.include_positions and params.position_codec != "golomb")
    ):
        return None
    from repro.compression.fastpack import (
        gamma_code_array,
        golomb_code_array_multi,
        pack_grouped,
    )

    # --- entry level: one (interval, ordinal) pair per row -------------
    is_entry_start = np.empty(all_ids.shape[0], dtype=bool)
    is_entry_start[0] = True
    is_entry_start[1:] = (np.diff(all_ids) != 0) | (np.diff(all_docs) != 0)
    entry_starts = np.flatnonzero(is_entry_start)
    entry_ids = all_ids[entry_starts]
    entry_docs = all_docs[entry_starts]
    entry_counts = np.diff(np.append(entry_starts, all_ids.shape[0]))

    # --- interval level -------------------------------------------------
    is_interval_start = np.empty(entry_ids.shape[0], dtype=bool)
    is_interval_start[0] = True
    is_interval_start[1:] = np.diff(entry_ids) != 0
    interval_of_entry = np.cumsum(is_interval_start) - 1
    unique_ids = entry_ids[is_interval_start]
    num_intervals = unique_ids.shape[0]
    df = np.bincount(interval_of_entry, minlength=num_intervals)
    cf = np.bincount(
        interval_of_entry, weights=entry_counts, minlength=num_intervals
    ).astype(np.int64)

    # --- per-interval codec parameters (must match the scalar rule) ----
    num_sequences = max(context.num_sequences, 1)
    density = np.minimum(df / num_sequences, 1.0 - 1e-12)
    doc_parameters = np.maximum(
        1, np.ceil(np.log(2.0 - density) / -np.log1p(-density))
    ).astype(np.int64)

    # --- document gaps ---------------------------------------------------
    doc_gaps = np.empty_like(entry_docs)
    doc_gaps[0] = entry_docs[0]
    doc_gaps[1:] = entry_docs[1:] - entry_docs[:-1] - 1
    doc_gaps[is_interval_start] = entry_docs[is_interval_start]
    doc_patterns, doc_lengths, doc_overflow = golomb_code_array_multi(
        doc_gaps, doc_parameters[interval_of_entry]
    )
    if bool(doc_overflow.any()):
        return None
    try:
        count_patterns, count_lengths = gamma_code_array(entry_counts - 1)
    except CodecValueError:
        return None  # absurd count; the scalar loop handles it

    # --- occurrence gaps -------------------------------------------------
    if params.include_positions:
        occurrence_is_start = is_entry_start
        previous_positions = np.empty_like(all_positions)
        previous_positions[1:] = all_positions[:-1]
        previous_positions[occurrence_is_start] = -1
        position_gaps = all_positions - previous_positions - 1
        per_sequence = np.maximum(
            1, np.rint(cf / np.maximum(df, 1))
        ).astype(np.int64)
        mean_length = max(1, round(context.mean_length))
        pos_density = np.minimum(
            per_sequence / mean_length, 1.0 - 1e-12
        )
        position_parameters = np.maximum(
            1, np.ceil(np.log(2.0 - pos_density) / -np.log1p(-pos_density))
        ).astype(np.int64)
        interval_of_occurrence = (np.cumsum(is_entry_start) - 1)
        interval_of_occurrence = interval_of_entry[interval_of_occurrence]
        pos_patterns, pos_lengths, pos_overflow = golomb_code_array_multi(
            position_gaps, position_parameters[interval_of_occurrence]
        )
        if bool(pos_overflow.any()):
            return None
    else:
        pos_patterns = np.empty(0, dtype=np.uint64)
        pos_lengths = np.empty(0, dtype=np.int64)
        interval_of_occurrence = np.empty(0, dtype=np.int64)

    # --- assemble the global code order: per interval, section A
    #     (doc gap, count interleaved) then section B (offsets) --------
    codes_a = 2 * df
    codes_b = cf if params.include_positions else np.zeros_like(cf)
    interval_code_starts = np.zeros(num_intervals, dtype=np.int64)
    np.cumsum((codes_a + codes_b)[:-1], out=interval_code_starts[1:])

    entry_rank = np.arange(entry_ids.shape[0]) - np.repeat(
        np.flatnonzero(is_interval_start), df
    )
    doc_slots = interval_code_starts[interval_of_entry] + 2 * entry_rank
    count_slots = doc_slots + 1

    total_codes = int((codes_a + codes_b).sum())
    patterns = np.empty(total_codes, dtype=np.uint64)
    lengths = np.empty(total_codes, dtype=np.int64)
    group_ids = np.empty(total_codes, dtype=np.int64)
    patterns[doc_slots] = doc_patterns
    lengths[doc_slots] = doc_lengths
    group_ids[doc_slots] = interval_of_entry
    patterns[count_slots] = count_patterns
    lengths[count_slots] = count_lengths
    group_ids[count_slots] = interval_of_entry

    if params.include_positions and all_positions.shape[0]:
        # Rank of each occurrence within its interval: global index
        # minus the interval's first occurrence index.
        interval_first_occurrence = np.zeros(num_intervals, dtype=np.int64)
        occ_counts = np.bincount(
            interval_of_occurrence, minlength=num_intervals
        )
        np.cumsum(occ_counts[:-1], out=interval_first_occurrence[1:])
        occurrence_rank = (
            np.arange(all_positions.shape[0])
            - interval_first_occurrence[interval_of_occurrence]
        )
        pos_slots = (
            interval_code_starts[interval_of_occurrence]
            + codes_a[interval_of_occurrence]
            + occurrence_rank
        )
        patterns[pos_slots] = pos_patterns
        lengths[pos_slots] = pos_lengths
        group_ids[pos_slots] = interval_of_occurrence

    buffer, bounds = pack_grouped(patterns, lengths, group_ids)
    vocabulary: dict[int, VocabEntry] = {}
    for slot in range(num_intervals):
        interval = int(unique_ids[slot])
        vocabulary[interval] = VocabEntry(
            interval,
            int(df[slot]),
            int(cf[slot]),
            buffer[int(bounds[slot]) : int(bounds[slot + 1])],
        )
    return vocabulary


def index_sequences_from(
    records: Iterable[Sequence], params: IndexParameters | None = None
) -> InvertedIndex:
    """Convenience wrapper accepting any iterable of records."""
    return build_index(list(records), params)
