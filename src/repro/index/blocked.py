"""Self-indexing (skip-pointer) posting lists.

Long compressed lists are expensive to decode when a consumer only
needs a few entries — e.g. checking whether specific candidate
sequences contain an interval.  Following the self-indexing inverted
lists of Moffat & Zobel (used by the same group's text and genomic
engines), the list is divided into fixed-size *blocks*, each
independently decodable, preceded by a directory of (first ordinal,
bit length) pairs.  A reader seeking particular ordinals walks the
directory and skips — in O(1) per block — every block whose ordinal
range cannot contain them.

Layout (bit-aligned)::

    gamma(num_blocks)
    directory: per block, gamma(first-ordinal gap), gamma(bit length)
    blocks:    per block, gamma(count_0 - 1),
               then (golomb(ordinal gap), gamma(count - 1)) pairs

The first ordinal of each block lives only in the directory, so block
decoding is self-contained.  Counts ride along as in the main postings
codec.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.elias import EliasGammaCodec
from repro.compression.golomb import GolombCodec, optimal_golomb_parameter
from repro.errors import CodecError
from repro.index.postings import PostingsContext

_GAMMA = EliasGammaCodec()

#: Default entries per block: small enough to skip most of a long list,
#: large enough that directories stay a few percent of the data.
DEFAULT_BLOCK_SIZE = 32


class BlockedPostings:
    """Encoder/decoder for self-indexing document/count lists.

    Args:
        block_size: entries per block.

    Raises:
        CodecError: if ``block_size`` < 1.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 1:
            raise CodecError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size

    def _gap_codec(self, df: int, context: PostingsContext) -> GolombCodec:
        return GolombCodec(
            optimal_golomb_parameter(max(df, 1), max(context.num_sequences, 1))
        )

    def encode(
        self,
        docs: np.ndarray,
        counts: np.ndarray,
        context: PostingsContext,
    ) -> bytes:
        """Compress parallel (ordinal, count) arrays.

        Raises:
            CodecError: if the arrays disagree in length, ordinals are
                not strictly increasing, or a count is < 1.
        """
        docs = np.asarray(docs, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if docs.shape != counts.shape:
            raise CodecError("docs and counts must be parallel arrays")
        if docs.shape[0] and (
            np.any(np.diff(docs) <= 0) or int(docs[0]) < 0
        ):
            raise CodecError("ordinals must be strictly increasing and >= 0")
        if counts.shape[0] and int(counts.min(initial=1)) < 1:
            raise CodecError("counts must be >= 1")

        gaps = self._gap_codec(docs.shape[0], context)
        blocks: list[tuple[int, bytes, int]] = []  # (first doc, bits, nbits)
        for start in range(0, docs.shape[0], self.block_size):
            block_docs = docs[start : start + self.block_size]
            block_counts = counts[start : start + self.block_size]
            writer = BitWriter()
            _GAMMA.encode_value(writer, int(block_counts[0]) - 1)
            previous = int(block_docs[0])
            for doc, count in zip(
                block_docs[1:].tolist(), block_counts[1:].tolist()
            ):
                gaps.encode_value(writer, doc - previous - 1)
                _GAMMA.encode_value(writer, count - 1)
                previous = doc
            blocks.append(
                (int(block_docs[0]), writer.getvalue(), writer.bit_length)
            )

        out = BitWriter()
        _GAMMA.encode_value(out, len(blocks))
        previous_first = -1
        for first_doc, _, bit_length in blocks:
            _GAMMA.encode_value(out, first_doc - previous_first - 1)
            _GAMMA.encode_value(out, bit_length)
            previous_first = first_doc
        for _, data, bit_length in blocks:
            out.write_bit_chunk(data, bit_length)
        return out.getvalue()

    def _read_directory(
        self, reader: BitReader
    ) -> tuple[list[int], list[int]]:
        num_blocks = _GAMMA.decode_value(reader)
        first_docs: list[int] = []
        bit_lengths: list[int] = []
        previous = -1
        for _ in range(num_blocks):
            previous += _GAMMA.decode_value(reader) + 1
            first_docs.append(previous)
            bit_lengths.append(_GAMMA.decode_value(reader))
        return first_docs, bit_lengths

    def _decode_block(
        self,
        reader: BitReader,
        first_doc: int,
        entries: int,
        gaps: GolombCodec,
    ) -> tuple[list[int], list[int]]:
        docs = [first_doc]
        counts = [_GAMMA.decode_value(reader) + 1]
        previous = first_doc
        for _ in range(entries - 1):
            previous += gaps.decode_value(reader) + 1
            docs.append(previous)
            counts.append(_GAMMA.decode_value(reader) + 1)
        return docs, counts

    def decode_all(
        self, data: bytes, df: int, context: PostingsContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode the full list: (ordinals, counts) int64 arrays."""
        if df == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        reader = BitReader(data)
        first_docs, _ = self._read_directory(reader)
        gaps = self._gap_codec(df, context)
        docs: list[int] = []
        counts: list[int] = []
        remaining = df
        for block, first_doc in enumerate(first_docs):
            entries = min(self.block_size, remaining)
            block_docs, block_counts = self._decode_block(
                reader, first_doc, entries, gaps
            )
            docs.extend(block_docs)
            counts.extend(block_counts)
            remaining -= entries
        return (
            np.array(docs, dtype=np.int64),
            np.array(counts, dtype=np.int64),
        )

    def decode_candidates(
        self,
        data: bytes,
        df: int,
        context: PostingsContext,
        wanted: Iterable[int],
    ) -> dict[int, int]:
        """Counts for the ``wanted`` ordinals present in the list.

        Blocks whose ordinal range cannot hold a wanted ordinal are
        skipped without decoding — the whole point of the directory.

        Returns:
            ``{ordinal: count}`` for the wanted ordinals found.
        """
        wanted_set = {int(doc) for doc in wanted}
        wanted_sorted = sorted(wanted_set)
        if not wanted_sorted or df == 0:
            return {}
        reader = BitReader(data)
        first_docs, bit_lengths = self._read_directory(reader)
        gaps = self._gap_codec(df, context)

        found: dict[int, int] = {}
        remaining = df
        for block, first_doc in enumerate(first_docs):
            entries = min(self.block_size, remaining)
            remaining -= entries
            next_first = (
                first_docs[block + 1]
                if block + 1 < len(first_docs)
                else None
            )
            # The block covers [first_doc, next_first); check overlap.
            overlaps = any(
                doc >= first_doc
                and (next_first is None or doc < next_first)
                for doc in wanted_sorted
            )
            if not overlaps:
                reader.skip_bits(bit_lengths[block])
                continue
            block_docs, block_counts = self._decode_block(
                reader, first_doc, entries, gaps
            )
            for doc, count in zip(block_docs, block_counts):
                if doc in wanted_set:
                    found[doc] = count
        return found
