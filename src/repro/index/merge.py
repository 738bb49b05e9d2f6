"""Chunked index construction and index merging.

The paper's collections (GenBank) do not fit in memory, so the on-disk
index is built the classic inverted-file way: invert manageable chunks
in memory, then merge the partial indexes.  Merging re-encodes each
interval's postings because sequence ordinals are renumbered into the
combined collection and the Golomb parameters are derived from the
combined statistics.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Sequence as TypingSequence, TypeVar

import numpy as np

from repro.errors import IndexParameterError
from repro.index.builder import (
    CollectionInfo,
    IndexParameters,
    IndexReader,
    InvertedIndex,
    VocabEntry,
    build_index,
)
from repro.index.postings import PostingEntry, PostingsCodec
from repro.sequences.record import Sequence

T = TypeVar("T")


def merge_indexes(parts: TypingSequence[InvertedIndex]) -> InvertedIndex:
    """Merge partial indexes into one index over the concatenated
    collections.

    Sequence ordinals of part ``i`` are shifted by the total number of
    sequences in parts ``0..i-1``; the result is exactly the index a
    single :func:`~repro.index.builder.build_index` over the combined
    record list would produce.

    Raises:
        IndexParameterError: if no parts are given or their parameters
            disagree.
    """
    if not parts:
        raise IndexParameterError("nothing to merge")
    params = parts[0].params
    for part in parts[1:]:
        if part.params != params:
            raise IndexParameterError(
                "cannot merge indexes with different parameters: "
                f"{part.params} vs {params}"
            )

    identifiers: list[str] = []
    lengths: list[int] = []
    offsets: list[int] = []
    running = 0
    for part in parts:
        offsets.append(running)
        identifiers.extend(part.collection.identifiers)
        lengths.extend(part.collection.lengths.tolist())
        running += part.collection.num_sequences
    collection = CollectionInfo(
        tuple(identifiers), np.array(lengths, dtype=np.int64)
    )
    context = collection.context()
    codec = PostingsCodec()

    all_ids = sorted(
        {interval for part in parts for interval in part.interval_ids()}
    )
    vocabulary: dict[int, VocabEntry] = {}
    for interval, entries in _merged_postings(parts, offsets, all_ids):
        data = codec.encode(entries, context)
        vocabulary[interval] = VocabEntry(
            interval,
            len(entries),
            sum(entry.count for entry in entries),
            data,
        )
    return InvertedIndex(params, collection, vocabulary)


#: Intervals read per ``read_lists`` call while merging: one vocabulary
#: resolve and one decode per part per chunk, and a streaming merge
#: holds one chunk's postings at a time.
MERGE_CHUNK = 256


def _merged_postings(
    parts: TypingSequence[IndexReader],
    offsets: TypingSequence[int],
    interval_ids: Iterable[int],
) -> Iterator[tuple[int, list[PostingEntry]]]:
    """Each of the ascending, distinct ``interval_ids`` with its
    postings from every part in part order, sequence ordinals shifted
    by the part's offset; read :data:`MERGE_CHUNK` intervals at a
    time."""
    for chunk in _batches(interval_ids, MERGE_CHUNK):
        per_part = [
            _shifted_postings(part, chunk, offset)
            for part, offset in zip(parts, offsets)
        ]
        for slot, interval in enumerate(chunk):
            yield interval, [
                entry for lists in per_part for entry in lists[slot]
            ]


def _shifted_postings(
    part: IndexReader, interval_ids: list[int], offset: int
) -> list[list[PostingEntry]]:
    """``part``'s posting list for each of ``interval_ids`` (empty when
    absent) with sequence ordinals shifted by ``offset``."""
    lens, docs, counts = part.read_lists(interval_ids)
    entries = [
        PostingEntry(doc + offset, count)
        for doc, count in zip(docs.tolist(), counts.tolist())
    ]
    ends = np.cumsum(lens).tolist()
    return [
        entries[end - length : end]
        for end, length in zip(ends, lens.tolist())
    ]


def _batches(items: Iterable[T], batch_size: int) -> Iterator[list[T]]:
    batch: list[T] = []
    for item in items:
        batch.append(item)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def merge_index_files(
    paths: TypingSequence[str], output: str, buffer_limit: int = 1 << 16
) -> int:
    """Merge on-disk indexes into a new on-disk index, streaming.

    This is the external-memory build path: posting lists are decoded
    from the parts :data:`MERGE_CHUNK` intervals at a time and
    re-encoded one interval at a time, so peak memory is one chunk's
    postings plus a small write buffer — the
    classic inverted-file merge the paper's system used for GenBank.

    Args:
        paths: the part files, in the ordinal order their collections
            should be concatenated.
        output: destination path.
        buffer_limit: accumulated blob bytes held before flushing.

    Returns:
        Bytes written to ``output``.

    Raises:
        IndexParameterError: if no parts are given or their parameters
            disagree.
    """
    import heapq
    import json
    import tempfile
    import zlib
    from pathlib import Path

    from repro.index.atomic import atomic_write
    from repro.index.storage import _VOCAB_DTYPE, DiskIndex, write_index_stream

    if not paths:
        raise IndexParameterError("nothing to merge")
    parts = [DiskIndex(path) for path in paths]
    blob_path: str | None = None
    try:
        params = parts[0].params
        for part in parts[1:]:
            if part.params != params:
                raise IndexParameterError(
                    "cannot merge indexes with different parameters"
                )
        identifiers: list[str] = []
        lengths: list[int] = []
        offsets: list[int] = []
        running = 0
        for part in parts:
            offsets.append(running)
            identifiers.extend(part.collection.identifiers)
            lengths.extend(part.collection.lengths.tolist())
            running += part.collection.num_sequences
        collection = CollectionInfo(
            tuple(identifiers), np.array(lengths, dtype=np.int64)
        )
        context = collection.context()
        codec = PostingsCodec()

        # Duplicates across parts are merged once.
        all_ids = (
            interval
            for interval, _ in groupby(
                heapq.merge(*(part.interval_ids() for part in parts))
            )
        )
        table_rows: list[tuple[int, int, int, int, int, int]] = []
        blob_offset = 0
        # The blob is spooled to a same-directory temp file; it is
        # unlinked in the finally block below, so a failure anywhere in
        # the merge never leaves an orphan on disk.
        with tempfile.NamedTemporaryFile(
            dir=Path(output).parent, delete=False
        ) as blob:
            blob_path = blob.name
            buffer = bytearray()
            for interval, entries in _merged_postings(
                parts, offsets, all_ids
            ):
                data = codec.encode(entries, context)
                table_rows.append(
                    (
                        interval,
                        len(entries),
                        sum(entry.count for entry in entries),
                        blob_offset,
                        len(data),
                        zlib.crc32(data),
                    )
                )
                blob_offset += len(data)
                buffer.extend(data)
                if len(buffer) >= buffer_limit:
                    blob.write(buffer)
                    buffer.clear()
            blob.write(buffer)

        header = json.dumps(
            {
                "params": params.describe(),
                "identifiers": list(collection.identifiers),
                "lengths": collection.lengths.tolist(),
            }
        ).encode("utf-8")
        packed = np.empty(len(table_rows), dtype=_VOCAB_DTYPE)
        if table_rows:
            table = np.array(table_rows, dtype=np.int64)
            packed["interval_id"] = table[:, 0]
            packed["df"] = table[:, 1]
            packed["cf"] = table[:, 2]
            packed["offset"] = table[:, 3]
            packed["length"] = table[:, 4]
            packed["crc"] = table[:, 5]

        def blob_chunks():
            with open(blob_path, "rb") as blob_in:
                while True:
                    chunk = blob_in.read(1 << 20)
                    if not chunk:
                        break
                    yield chunk

        with atomic_write(output) as out:
            return write_index_stream(out, header, packed, blob_chunks())
    finally:
        if blob_path is not None:
            Path(blob_path).unlink(missing_ok=True)
        for part in parts:
            part.close()


def append_sequences(
    index: InvertedIndex, records: TypingSequence[Sequence]
) -> InvertedIndex:
    """Extend an index with new sequences (appended at the end).

    New records receive the next ordinals; existing ordinals are
    untouched, so sequence sources only need to grow.  Equivalent to
    rebuilding over the combined record list.

    Raises:
        IndexParameterError: if ``records`` is empty.
    """
    if not records:
        raise IndexParameterError("no sequences to append")
    addition = build_index(list(records), index.params)
    return merge_indexes([index, addition])


def build_index_chunked(
    records: Iterable[Sequence],
    params: IndexParameters | None = None,
    chunk_size: int = 1000,
) -> InvertedIndex:
    """Build an index by inverting fixed-size chunks and merging.

    Accepts any iterable of records (e.g. a lazy FASTA reader), so the
    whole collection never needs to be materialised twice.

    Raises:
        IndexParameterError: if ``chunk_size`` < 1 or the collection is
            empty.
    """
    if chunk_size < 1:
        raise IndexParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    if params is None:
        params = IndexParameters()
    parts = [
        build_index(batch, params) for batch in _batches(records, chunk_size)
    ]
    if not parts:
        raise IndexParameterError("cannot index an empty collection")
    if len(parts) == 1:
        return parts[0]
    return merge_indexes(parts)
