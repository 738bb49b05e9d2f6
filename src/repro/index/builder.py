"""Inverted-index construction and the in-memory index.

Building is a few array passes: one interval pass over the whole
collection puts every (interval id, sequence ordinal) pair into two
flat numpy arrays, one radix sort groups them, and the groups are
coded in passes of whole intervals whose size a module constant
bounds.  This mirrors the sort-based inversion used for the paper's
on-disk indexes, scaled to in-memory collections.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Collection, Iterator, Sequence as TypingSequence

import numpy as np

from repro.errors import (
    CodecValueError,
    CorruptionError,
    IndexParameterError,
)
from repro.index.intervals import IntervalExtractor
from repro.index.postings import (
    HEADER_CODEC_KEYS,
    PostingEntry,
    PostingsCodec,
    PostingsContext,
    check_header_codecs,
)
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
    """

    interval_length: int = 8
    stride: int = 1

    def make_extractor(self) -> IntervalExtractor:
        """The extractor these parameters describe."""
        return IntervalExtractor(self.interval_length, self.stride)

    def describe(self) -> dict[str, object]:
        """Parameters as a plain dict (for index headers), with the
        posting codec's fixed keys."""
        return {
            "interval_length": self.interval_length,
            "stride": self.stride,
            **HEADER_CODEC_KEYS,
        }

    @classmethod
    def from_description(cls, description: dict[str, object]) -> "IndexParameters":
        """Rebuild parameters from :meth:`describe` output.

        Raises:
            IndexFormatError: if the description names another posting
                codec.
        """
        check_header_codecs(description)
        return cls(
            interval_length=int(description["interval_length"]),  # type: ignore[arg-type]
            stride=int(description["stride"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class CollectionInfo:
    """The sequence lengths of the indexed collection.

    This is the only collection knowledge the index itself retains; the
    identifiers and residues live in a
    :class:`~repro.index.store.SequenceStore` (or in memory) and are
    touched only by the fine search.
    """

    lengths: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        lengths = np.ascontiguousarray(self.lengths, dtype=np.int64)
        lengths.setflags(write=False)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def from_sequences(cls, sequences: TypingSequence[Sequence]) -> "CollectionInfo":
        return cls(
            np.array([len(record) for record in sequences], dtype=np.int64)
        )

    @property
    def num_sequences(self) -> int:
        return int(self.lengths.shape[0])

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
            codec = PostingsCodec()
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
        skip: set[int] | None = None,
        deadline=None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve and decode many posting lists as flat arrays.

        Returns ``(lens, docs, counts)``.  ``lens[i]`` is interval
        ``i``'s entry count: 0 when it is absent, in ``skip``, or not
        reached before ``deadline`` expired.  ``docs``/``counts``
        concatenate the entries in request order, so interval ``i``
        occupies ``cumsum(lens)[i-1] : cumsum(lens)[i]``.  This is the
        one read path of the coarse phase.

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
            return self._read_chunk(interval_ids, skip)
        parts = []
        for start in range(0, total, READ_CHUNK):
            if deadline.expired():
                break
            parts.append(
                self._read_chunk(interval_ids[start : start + READ_CHUNK], skip)
            )
        return _concatenate_lists(parts, total)

    def _read_chunk(self, interval_ids, skip):
        resolved = self.resolve(interval_ids, skip=skip)
        try:
            return self.decode_lists(resolved)
        except CorruptionError:
            if skip is None:
                raise
        # Re-read list by list: only the damaged ones go.
        parts = []
        for slot, interval_id in enumerate(interval_ids.tolist()):
            try:
                parts.append(self.decode_lists(resolved.single(slot)))
            except CorruptionError as exc:
                self._quarantine(skip, interval_id, exc)
                parts.append(_concatenate_lists([], 1))
        return _concatenate_lists(parts, len(interval_ids))

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
        self, resolved: ResolvedLists
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The decode step of :meth:`read_lists`: every resolved list
        through one decoder call over ``resolved.buffer``.  Returns
        ``(lens, docs, counts)``."""
        lens = resolved.dfs
        present = np.flatnonzero(lens)
        fields = (lens, resolved.cfs, resolved.offsets, resolved.lengths)
        if present.shape[0] < lens.shape[0]:
            fields = tuple(values[present] for values in fields)
        dfs, cfs, offsets, lengths = fields
        docs, counts = self.codec.decode_docs_counts_flat(
            resolved.buffer, offsets, lengths, dfs, self.context, cfs=cfs
        )
        self.instruments.count("index.postings_decoded", present.shape[0])
        return lens, docs, counts

    def docs_counts_flat_from_entries(
        self,
        interval_ids: TypingSequence[int],
        entries: TypingSequence[VocabEntry | None],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`decode_lists` over already looked-up entries
        (``None`` = nothing to read)."""
        return self.decode_lists(
            ResolvedLists.from_entries(interval_ids, entries)
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
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]], total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join :meth:`IndexReader.read_lists` pieces read in request
    order; ``lens`` is zero-padded to ``total`` lists."""
    lens = np.zeros(total, dtype=np.int64)
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return lens, empty, empty.copy()
    read = np.concatenate([part[0] for part in parts])
    lens[: read.shape[0]] = read
    return (
        lens,
        np.concatenate([part[1] for part in parts]),
        np.concatenate([part[2] for part in parts]),
    )


class InvertedIndex(IndexReader):
    """In-memory interval index: the vocabulary in ascending interval
    order, its compressed lists back to back in one buffer."""

    def __init__(
        self,
        params: IndexParameters,
        collection: CollectionInfo,
        vocabulary: dict[int, VocabEntry] | ResolvedLists,
    ) -> None:
        """``vocabulary`` is the rows by interval id, or the whole
        vocabulary as :class:`ResolvedLists` in ascending id order with
        list ``i`` at ``offsets[i]`` and nothing between lists."""
        self.params = params
        self.collection = collection
        if not isinstance(vocabulary, ResolvedLists):
            ordered = sorted(vocabulary)
            vocabulary = ResolvedLists.from_entries(
                ordered, [vocabulary[interval] for interval in ordered]
            )
        self.lists = vocabulary

    def lookup_entry(self, interval_id: int) -> VocabEntry | None:
        ids = self.lists.interval_ids
        slot = int(np.searchsorted(ids, interval_id))
        if slot < ids.shape[0] and int(ids[slot]) == interval_id:
            return self.lists.entry(slot)
        return None

    def interval_ids(self) -> Iterator[int]:
        return iter(self.lists.interval_ids.tolist())

    @property
    def vocabulary_size(self) -> int:
        return int(self.lists.interval_ids.shape[0])

    def entries(self) -> Iterator[VocabEntry]:
        """Vocabulary rows in ascending interval-id order."""
        for slot in range(self.vocabulary_size):
            yield self.lists.entry(slot)

    def replace_vocabulary(
        self, vocabulary: dict[int, VocabEntry]
    ) -> "InvertedIndex":
        """A new index sharing parameters/collection with new rows."""
        return InvertedIndex(self.params, self.collection, vocabulary)


#: Occurrences the bulk encoder codes per pass.  A pass holds whole
#: intervals, so one interval with more occurrences is a pass of its
#: own; this bounds the encoder's temporaries, not the result.
ENCODE_CHUNK = 1 << 18


def build_index(
    sequences: TypingSequence[Sequence],
    params: IndexParameters | None = None,
) -> InvertedIndex:
    """Index a collection of sequences.

    Args:
        sequences: the collection, in the ordinal order queries will
            report.
        params: index shape; defaults to overlapping length-8 intervals.

    Raises:
        IndexParameterError: if the collection is empty.
    """
    if params is None:
        params = IndexParameters()
    if not sequences:
        raise IndexParameterError("cannot index an empty collection")

    collection = CollectionInfo.from_sequences(sequences)
    codec = PostingsCodec()
    context = collection.context()
    ids, docs = params.make_extractor().extract_collection(
        [record.codes for record in sequences]
    )
    if not ids.shape[0]:
        return InvertedIndex(params, collection, {})
    # Ordinals already ascend, so a stable sort on the id alone groups
    # occurrences by (interval, ordinal).
    order = _stable_order(ids)
    ids = ids[order]
    docs = docs[order]
    del order
    lists = _bulk_encode_vocabulary(ids, docs, codec, context)
    if lists is None:
        lists = _loop_encode_vocabulary(ids, docs, codec, context)
    return InvertedIndex(params, collection, lists)


def _stable_order(ids: np.ndarray) -> np.ndarray:
    """The stable ascending order of unsigned ids, by 16-bit radix
    passes: one for ``uint16`` ids, low half then high half for wider
    ones (numpy sorts 16-bit keys stably by radix)."""
    if ids.dtype == np.uint16:
        return np.argsort(ids, kind="stable")
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    high = (ids >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def _loop_encode_vocabulary(
    all_ids: np.ndarray,
    all_docs: np.ndarray,
    codec: PostingsCodec,
    context: PostingsContext,
) -> dict[int, VocabEntry]:
    """Per-interval encoding loop — the reference path and the
    fallback when a code overflows the vector window."""
    vocabulary: dict[int, VocabEntry] = {}
    unique_ids, id_starts = np.unique(all_ids, return_index=True)
    id_bounds = np.append(id_starts, all_ids.shape[0])
    for slot, interval in enumerate(unique_ids):
        lo, hi = int(id_bounds[slot]), int(id_bounds[slot + 1])
        docs, counts = np.unique(all_docs[lo:hi], return_counts=True)
        entries = [
            PostingEntry(doc, count)
            for doc, count in zip(docs.tolist(), counts.tolist())
        ]
        vocabulary[int(interval)] = VocabEntry(
            int(interval), len(entries), hi - lo, codec.encode(entries, context)
        )
    return vocabulary


def _bulk_encode_vocabulary(
    all_ids: np.ndarray,
    all_docs: np.ndarray,
    codec: PostingsCodec,
    context: PostingsContext,
) -> ResolvedLists | None:
    """Whole-index vectorised encoding of occurrences sorted by
    (interval, ordinal).

    Codes the occurrences in passes of whole intervals of about
    :data:`ENCODE_CHUNK` occurrences each; every interval's list is
    byte-aligned, so each slice is bit-identical to encoding the
    interval alone and the passes simply concatenate.  Returns None
    when a code overflows the vector window (the loop then encodes).
    """
    total = all_ids.shape[0]
    passes = []
    start = 0
    while start < total:
        stop = start + ENCODE_CHUNK
        if stop < total:
            # Back off to the start of the interval the cut falls in,
            # or take that whole interval when it began the pass.
            stop = int(np.searchsorted(all_ids, all_ids[stop]))
            if stop <= start:
                stop = int(
                    np.searchsorted(all_ids, all_ids[start], side="right")
                )
        coded = _encode_pass(
            all_ids[start:stop], all_docs[start:stop], codec, context
        )
        if coded is None:
            return None
        passes.append(coded)
        start = stop
    interval_ids, dfs, cfs, buffers, lengths = zip(*passes)
    lengths = np.concatenate(lengths)
    return ResolvedLists(
        np.concatenate(interval_ids),
        np.concatenate(dfs),
        np.concatenate(cfs),
        np.cumsum(lengths) - lengths,
        lengths,
        np.frombuffer(b"".join(buffers), dtype=np.uint8),
    )


def _encode_pass(
    ids: np.ndarray,
    docs: np.ndarray,
    codec: PostingsCodec,
    context: PostingsContext,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes, np.ndarray] | None:
    """Code whole intervals' sorted occurrences: ``(interval_ids, dfs,
    cfs, buffer, lengths)``, list ``i`` being the next ``lengths[i]``
    bytes of ``buffer``; None when a code overflows the vector window."""
    from repro.compression.fastpack import (
        gamma_code_array,
        golomb_code_array_multi,
        interleave_codes,
        pack_grouped,
    )

    # --- entry level: one (interval, ordinal) pair per row -------------
    is_entry_start = np.empty(ids.shape[0], dtype=bool)
    is_entry_start[0] = True
    np.not_equal(ids[1:], ids[:-1], out=is_entry_start[1:])
    is_entry_start[1:] |= docs[1:] != docs[:-1]
    entry_starts = np.flatnonzero(is_entry_start)
    del is_entry_start
    entry_ids = ids[entry_starts]
    entry_docs = docs[entry_starts].astype(np.int64)
    entry_counts = np.diff(entry_starts, append=ids.shape[0])

    # --- interval level -------------------------------------------------
    is_interval_start = np.empty(entry_ids.shape[0], dtype=bool)
    is_interval_start[0] = True
    np.not_equal(entry_ids[1:], entry_ids[:-1], out=is_interval_start[1:])
    first_entries = np.flatnonzero(is_interval_start)
    df = np.diff(first_entries, append=entry_ids.shape[0])
    cf = np.add.reduceat(entry_counts, first_entries)

    # --- codes: per entry, the ordinal gap then the count ---------------
    doc_gaps = np.empty_like(entry_docs)
    doc_gaps[0] = entry_docs[0]
    doc_gaps[1:] = entry_docs[1:] - entry_docs[:-1] - 1
    doc_gaps[first_entries] = entry_docs[first_entries]
    doc_patterns, doc_lengths, doc_overflow = golomb_code_array_multi(
        doc_gaps, np.repeat(codec._doc_parameters(df, context), df)
    )
    if bool(doc_overflow.any()):
        return None
    try:
        count_patterns, count_lengths = gamma_code_array(entry_counts - 1)
    except CodecValueError:
        return None  # absurd count; the scalar loop handles it
    patterns, lengths = interleave_codes(
        (doc_patterns, doc_lengths), (count_patterns, count_lengths)
    )
    buffer, bounds = pack_grouped(
        patterns, lengths, np.repeat(np.cumsum(is_interval_start), 2)
    )
    return (
        entry_ids[first_entries].astype(np.int64),
        df,
        cf,
        buffer,
        np.diff(bounds),
    )
