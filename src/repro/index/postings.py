"""Compressed posting lists.

A posting list for one interval records, per sequence containing it,
the sequence ordinal and the within-sequence occurrence count — the
evidence the coarse phase accumulates.  The list is one section of
interleaved codes, per sequence: the sequence-ordinal gap (Golomb) and
``count - 1`` (Elias gamma).  This is the paper's codec, and the only
one an index uses.

Golomb parameters are *derived, not stored*: both encoder and decoder
compute them from df and the collection size with the same rule, which
is how the paper avoids spending space on per-list parameters.

Index files written before occurrence offsets were dropped carry a
second section after each list's entries: the offset gaps.  Every
decoder reads exactly ``df`` entries and never looks past them, so
those files read unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import fastunpack
from repro.compression.bitio import BitReader, BitWriter
from repro.compression.elias import EliasGammaCodec
from repro.compression.golomb import GolombCodec, optimal_golomb_parameter
from repro.errors import CodecError, CodecValueError, IndexFormatError

#: The codec keys of an index header's ``params``.  Files written with
#: occurrence offsets say ``include_positions: true``; the offsets are
#: never read, so either value opens.
HEADER_CODEC_KEYS: dict[str, object] = {
    "doc_codec": "golomb",
    "count_codec": "gamma",
    "position_codec": "golomb",
    "include_positions": False,
}


def check_header_codecs(description: dict[str, object]) -> None:
    """Refuse a header whose posting codecs are not this module's.

    Raises:
        IndexFormatError: if a codec key is missing or names another
            codec.
    """
    for key in ("doc_codec", "count_codec", "position_codec"):
        if description.get(key) != HEADER_CODEC_KEYS[key]:
            raise IndexFormatError(
                f"unsupported posting codec {key}="
                f"{description.get(key)!r}; expected "
                f"{HEADER_CODEC_KEYS[key]!r}"
            )


@dataclass(frozen=True)
class PostingsContext:
    """Collection-level statistics every list codec derivation needs.

    Attributes:
        num_sequences: sequences in the collection (document universe).
        total_length: total bases in the collection.
    """

    num_sequences: int
    total_length: int

    @property
    def mean_length(self) -> float:
        """Mean sequence length (1.0 floor to keep derivations sane)."""
        if self.num_sequences <= 0:
            return 1.0
        return max(1.0, self.total_length / self.num_sequences)


@dataclass(frozen=True)
class PostingEntry:
    """One sequence's occurrences of one interval."""

    sequence: int
    count: int


_GAMMA = EliasGammaCodec()


class PostingsCodec:
    """Encodes/decodes posting lists: Golomb ordinal gaps, gamma counts."""

    def __init__(self) -> None:
        # Derived-parameter memo, one table per universe size (the
        # parameter depends only on df and the collection size).
        self._doc_param_tables: dict[int, np.ndarray] = {}

    def _gap_codec(self, df: int, context: PostingsContext) -> GolombCodec:
        """The ordinal-gap code of one list, under the derived parameter."""
        return GolombCodec(
            optimal_golomb_parameter(max(df, 1), max(context.num_sequences, 1))
        )

    def _doc_parameters(
        self, dfs: np.ndarray, context: PostingsContext
    ) -> np.ndarray:
        """Per-list document-gap parameters, via a memo table.

        The table is filled by the scalar rule itself (not a vectorised
        transcendental, whose last-ulp differences from libm could flip
        a ``ceil`` at a boundary and silently desynchronise decoder and
        encoder), so batch decodes see exactly the per-list parameters.
        """
        universe = max(context.num_sequences, 1)
        max_df = int(dfs.max()) if dfs.shape[0] else 0
        table = self._doc_param_tables.get(universe)
        if table is None or table.shape[0] <= max_df:
            size = max(max_df + 1, 64)
            table = np.fromiter(
                (
                    optimal_golomb_parameter(max(df, 1), universe)
                    for df in range(size)
                ),
                dtype=np.int64,
                count=size,
            )
            self._doc_param_tables[universe] = table
        return table[dfs]

    def encode(
        self, entries: list[PostingEntry], context: PostingsContext
    ) -> bytes:
        """Compress a posting list (entries must be ordinal-sorted).

        Uses the vectorised packer; the scalar writer is the fallback
        when a code overflows the vector window, and the behavioural
        reference — both produce bit-identical output.

        Raises:
            CodecError: if entries are unsorted or a count is zero.
        """
        gaps = self._gap_codec(len(entries), context)
        if entries:
            fast = self._encode_vectorised(entries, gaps)
            if fast is not None:
                return fast

        writer = BitWriter()
        previous_doc = -1
        for entry in entries:
            if entry.sequence <= previous_doc:
                raise CodecError(
                    "posting entries must be strictly ordinal-sorted"
                )
            if entry.count < 1:
                raise CodecError("posting entry with zero occurrences")
            gaps.encode_value(writer, entry.sequence - previous_doc - 1)
            _GAMMA.encode_value(writer, entry.count - 1)
            previous_doc = entry.sequence
        return writer.getvalue()

    def _encode_vectorised(
        self, entries: list[PostingEntry], gaps: GolombCodec
    ) -> bytes | None:
        """Array-at-a-time encoding; None when a code overflows the
        vector window (the caller then uses the scalar writer)."""
        from repro.compression.fastpack import (
            gamma_code_array,
            golomb_code_array_multi,
            interleave_codes,
            pack_patterns,
        )

        docs = np.fromiter(
            (entry.sequence for entry in entries), dtype=np.int64,
            count=len(entries),
        )
        counts = np.fromiter(
            (entry.count for entry in entries), dtype=np.int64,
            count=len(entries),
        )
        if int(docs[0]) < 0 or (docs.shape[0] > 1
                                and int(np.diff(docs).min()) <= 0):
            raise CodecError("posting entries must be strictly ordinal-sorted")
        if int(counts.min()) < 1:
            raise CodecError("posting entry with zero occurrences")

        doc_gaps = np.empty_like(docs)
        doc_gaps[0] = docs[0]
        doc_gaps[1:] = np.diff(docs) - 1
        doc_patterns, doc_lengths, doc_overflow = golomb_code_array_multi(
            doc_gaps, gaps.parameter
        )
        if bool(doc_overflow.any()):
            return None
        try:
            count_patterns, count_lengths = gamma_code_array(counts - 1)
        except CodecValueError:
            return None  # absurd count; the scalar writer handles it
        return pack_patterns(
            *interleave_codes(
                (doc_patterns, doc_lengths), (count_patterns, count_lengths)
            )
        )

    def decode_docs_counts_flat(
        self,
        buffer: np.ndarray,
        byte_offsets: np.ndarray,
        lengths: np.ndarray,
        dfs: np.ndarray,
        context: PostingsContext,
        cfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode many lists into flat lane-major arrays.

        List ``i`` is the ``lengths[i]`` bytes at ``byte_offsets[i]``
        of the uint8 array ``buffer``, holding ``dfs[i]`` entries.
        Returns ``(docs, counts)`` int64 arrays concatenating every
        list's entries in request order (list ``i`` occupies
        ``cumsum(dfs)[i-1] : cumsum(dfs)[i]``).  The whole batch decodes
        in one table build; lists the block decoder cannot finish are
        spliced through the scalar loop, so the values (and any
        exception) match the per-list path exactly.
        """
        if not int(dfs.sum()):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        docs, counts, ok = fastunpack.decode_docs_counts_flat(
            buffer,
            byte_offsets,
            lengths,
            dfs,
            self._doc_parameters(dfs, context),
            cfs,
            context.num_sequences,
        )
        first = np.cumsum(dfs) - dfs
        for slot in np.flatnonzero(~ok).tolist():
            start = int(first[slot])
            stop = start + int(dfs[slot])
            offset = int(byte_offsets[slot])
            docs[start:stop], counts[start:stop] = self.decode_docs_counts(
                bytes(buffer[offset : offset + int(lengths[slot])]),
                int(dfs[slot]),
                context,
            )
        return docs, counts

    def decode_docs_counts(
        self, data: bytes, df: int, context: PostingsContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode one list: (ordinals, counts) as int64 arrays.

        The pure-Python reference decode.  A lone list gains nothing
        from the numpy block decoder (see docs/KERNELS.md), which pays
        its dispatch cost per *batch* and serves
        :meth:`decode_docs_counts_flat` instead.
        """
        gaps = self._gap_codec(df, context)
        reader = BitReader(data)
        docs = np.empty(df, dtype=np.int64)
        counts = np.empty(df, dtype=np.int64)
        previous_doc = -1
        for slot in range(df):
            previous_doc += gaps.decode_value(reader) + 1
            docs[slot] = previous_doc
            counts[slot] = _GAMMA.decode_value(reader) + 1
        return docs, counts
