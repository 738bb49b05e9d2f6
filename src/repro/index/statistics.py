"""Index space accounting — the quantities the E1/E2/E6 tables report.

Sizes are reported both absolutely and relative to the collection, the
form the paper uses ("index size held to an acceptable level" means an
acceptable *fraction* of the data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.builder import IndexReader

#: Bytes an uncompressed pointer costs: a 4-byte ordinal, a 4-byte
#: count, and 4 bytes per offset is the flat record the compressed
#: layout is measured against.
UNCOMPRESSED_DOC_BYTES = 8
UNCOMPRESSED_POSITION_BYTES = 4


@dataclass(frozen=True)
class IndexStatistics:
    """Aggregate size/shape measurements of one index."""

    interval_length: int
    stride: int
    vocabulary_size: int
    pointer_count: int
    occurrence_count: int
    compressed_bytes: int
    collection_sequences: int
    collection_bases: int
    df_quantiles: tuple[int, int, int]  # 50th / 90th / 99th percentile df

    @property
    def bits_per_pointer(self) -> float:
        """Compressed bits per sequence pointer."""
        if not self.pointer_count:
            return 0.0
        return 8.0 * self.compressed_bytes / self.pointer_count

    @property
    def uncompressed_bytes(self) -> int:
        """Flat-record size of the same index, for the compression ratio."""
        return (
            self.pointer_count * UNCOMPRESSED_DOC_BYTES
            + self.occurrence_count * UNCOMPRESSED_POSITION_BYTES
        )

    @property
    def compression_ratio(self) -> float:
        """Uncompressed over compressed size (higher is better)."""
        if not self.compressed_bytes:
            return 0.0
        return self.uncompressed_bytes / self.compressed_bytes

    @property
    def index_to_collection_ratio(self) -> float:
        """Compressed index bytes per collection base."""
        if not self.collection_bases:
            return 0.0
        return self.compressed_bytes / self.collection_bases


def collect_statistics(index: IndexReader) -> IndexStatistics:
    """Measure an index (either in-memory or on-disk)."""
    resolved = index.resolve(list(index.interval_ids()))
    dfs = resolved.dfs
    assert dfs.all()
    df_array = dfs if dfs.shape[0] else np.zeros(1, np.int64)
    quantiles = tuple(
        int(np.percentile(df_array, q)) for q in (50, 90, 99)
    )
    return IndexStatistics(
        interval_length=index.params.interval_length,
        stride=index.params.stride,
        vocabulary_size=int(dfs.shape[0]),
        pointer_count=int(dfs.sum()),
        occurrence_count=int(resolved.cfs.sum()),
        compressed_bytes=int(resolved.lengths.sum()),
        collection_sequences=index.collection.num_sequences,
        collection_bases=index.collection.total_length,
        df_quantiles=quantiles,  # type: ignore[arg-type]
    )
