"""Interval (k-mer) inverted index: extraction, postings, storage."""

from repro.index.atomic import (
    atomic_write,
    file_crc32,
    write_bytes_atomic,
    write_text_atomic,
)
from repro.index.blocked import DEFAULT_BLOCK_SIZE, BlockedPostings
from repro.index.builder import (
    CollectionInfo,
    IndexParameters,
    IndexReader,
    InvertedIndex,
    VocabEntry,
    build_index,
)
from repro.index.intervals import (
    MAX_INTERVAL_LENGTH,
    IntervalExtractor,
    interval_id,
)
from repro.index.postings import PostingEntry, PostingsCodec, PostingsContext
from repro.index.statistics import IndexStatistics, collect_statistics
from repro.index.stopping import StoppingReport, stop_most_frequent
from repro.index.storage import DiskIndex, read_index, write_index
from repro.index.store import (
    MemorySequenceSource,
    SequenceSource,
    SequenceStore,
    read_store,
    write_store,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "MAX_INTERVAL_LENGTH",
    "BlockedPostings",
    "CollectionInfo",
    "DiskIndex",
    "IndexParameters",
    "IndexReader",
    "IndexStatistics",
    "IntervalExtractor",
    "InvertedIndex",
    "MemorySequenceSource",
    "PostingEntry",
    "PostingsCodec",
    "PostingsContext",
    "SequenceSource",
    "SequenceStore",
    "StoppingReport",
    "VocabEntry",
    "atomic_write",
    "build_index",
    "collect_statistics",
    "file_crc32",
    "interval_id",
    "read_index",
    "read_store",
    "stop_most_frequent",
    "write_bytes_atomic",
    "write_index",
    "write_store",
    "write_text_atomic",
]
