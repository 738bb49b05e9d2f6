"""Compressed posting lists.

A posting list for one interval records, per sequence containing it,
the sequence ordinal, the within-sequence occurrence count, and the
occurrence offsets.  The on-the-wire layout is two sections:

* **section A** — per sequence, interleaved: the sequence-ordinal gap
  and ``count - 1``;
* **section B** — the offset gaps, sequence by sequence.

Coarse ranking only needs section A, so splitting the sections lets it
stop decoding before the (larger) offset data — the positions are only
read by the diagonal-scoring accumulator and the fine search.

Codecs are pluggable by name.  Golomb parameters are *derived, not
stored*: both encoder and decoder compute them from (df, cf) and the
collection statistics with the same rule, which is how the paper avoids
spending space on per-list parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import fastunpack
from repro.compression.bitio import BitReader, BitWriter
from repro.compression.golomb import GolombCodec, optimal_golomb_parameter
from repro.compression.integer import IntegerCodec, make_codec
from repro.errors import CodecError, CodecValueError


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
    positions: np.ndarray

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])


class PostingsCodec:
    """Encodes/decodes posting lists with pluggable integer codes.

    Args:
        doc_codec: codec name for sequence-ordinal gaps ("golomb" uses
            the Bernoulli-derived per-list parameter).
        count_codec: codec name for the count field.
        position_codec: codec name for offset gaps (same Golomb rule).
        include_positions: when False section B is omitted entirely and
            the index stores only ordinals and counts.

    Raises:
        CodecError: if a codec name is unknown.
    """

    def __init__(
        self,
        doc_codec: str = "golomb",
        count_codec: str = "gamma",
        position_codec: str = "golomb",
        include_positions: bool = True,
    ) -> None:
        self.doc_codec_name = doc_codec
        self.count_codec_name = count_codec
        self.position_codec_name = position_codec
        self.include_positions = include_positions
        # Non-parameterised codecs are stateless; build them once.
        self._count_codec = make_codec(count_codec)
        self._doc_codec_static = (
            None if doc_codec == "golomb" else make_codec(doc_codec)
        )
        self._position_codec_static = (
            None if position_codec == "golomb" else make_codec(position_codec)
        )
        # Derived-parameter memo, one table per universe size (the
        # parameter depends only on df and the collection size).
        self._doc_param_tables: dict[int, np.ndarray] = {}

    def _doc_codec(self, df: int, context: PostingsContext) -> IntegerCodec:
        if self._doc_codec_static is not None:
            return self._doc_codec_static
        return GolombCodec(self._doc_parameter(df, context))

    def _doc_parameter(self, df: int, context: PostingsContext) -> int:
        """The derived document-gap Golomb parameter for one list."""
        return optimal_golomb_parameter(
            max(df, 1), max(context.num_sequences, 1)
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

    def _fast_decodable(self) -> bool:
        """Whether the block decoder applies: the default codec
        configuration (Golomb gaps, gamma counts, Golomb offsets)."""
        return (
            self.doc_codec_name == "golomb"
            and self.count_codec_name == "gamma"
            and (not self.include_positions
                 or self.position_codec_name == "golomb")
        )

    def _position_codec(
        self, df: int, cf: int, context: PostingsContext
    ) -> IntegerCodec:
        if self._position_codec_static is not None:
            return self._position_codec_static
        return GolombCodec(self._position_parameter(df, cf, context))

    def _position_parameter(
        self, df: int, cf: int, context: PostingsContext
    ) -> int:
        """The derived offset-gap Golomb parameter for one list."""
        per_sequence = max(1, round(cf / max(df, 1)))
        return optimal_golomb_parameter(
            per_sequence, round(context.mean_length)
        )

    def encode(
        self, entries: list[PostingEntry], context: PostingsContext
    ) -> bytes:
        """Compress a posting list (entries must be ordinal-sorted).

        Uses the vectorised packer when the codec configuration allows
        (Golomb gaps + gamma counts, the default); the scalar writer is
        the fallback and the behavioural reference — both produce
        bit-identical output.

        Raises:
            CodecError: if entries are unsorted or a count is zero.
        """
        df = len(entries)
        cf = sum(entry.count for entry in entries)
        doc_codec = self._doc_codec(df, context)
        position_codec = self._position_codec(df, cf, context)

        if (
            df
            and self.doc_codec_name == "golomb"
            and self.count_codec_name == "gamma"
            and (not self.include_positions
                 or self.position_codec_name == "golomb")
        ):
            fast = self._encode_vectorised(
                entries, doc_codec, position_codec
            )
            if fast is not None:
                return fast

        writer = BitWriter()
        previous_doc = -1
        for entry in entries:
            if entry.sequence <= previous_doc:
                raise CodecError(
                    "posting entries must be strictly ordinal-sorted"
                )
            if entry.count == 0:
                raise CodecError("posting entry with zero occurrences")
            doc_codec.encode_value(writer, entry.sequence - previous_doc - 1)
            self._count_codec.encode_value(writer, entry.count - 1)
            previous_doc = entry.sequence
        if self.include_positions:
            for entry in entries:
                previous_position = -1
                for position in entry.positions:
                    position_codec.encode_value(
                        writer, int(position) - previous_position - 1
                    )
                    previous_position = int(position)
        return writer.getvalue()

    def _encode_vectorised(
        self,
        entries: list[PostingEntry],
        doc_codec: IntegerCodec,
        position_codec: IntegerCodec,
    ) -> bytes | None:
        """Array-at-a-time encoding; None when a code overflows the
        vector window (the caller then uses the scalar writer)."""
        from repro.compression.fastpack import (
            gamma_code_array,
            golomb_code_array,
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
        assert isinstance(doc_codec, GolombCodec)
        doc_patterns, doc_lengths, doc_overflow = golomb_code_array(
            doc_gaps, doc_codec.parameter
        )
        if bool(doc_overflow.any()):
            return None
        try:
            count_patterns, count_lengths = gamma_code_array(counts - 1)
        except CodecValueError:
            return None  # absurd count; the scalar writer handles it
        patterns, lengths = interleave_codes(
            (doc_patterns, doc_lengths), (count_patterns, count_lengths)
        )

        if self.include_positions:
            all_positions = np.concatenate(
                [entry.positions for entry in entries]
            ).astype(np.int64)
            previous = np.empty_like(all_positions)
            previous[1:] = all_positions[:-1]
            starts = np.zeros(all_positions.shape[0], dtype=bool)
            starts[np.cumsum(counts[:-1])] = True
            starts[0] = True
            previous[starts] = -1
            position_gaps = all_positions - previous - 1
            assert isinstance(position_codec, GolombCodec)
            pos_patterns, pos_lengths, pos_overflow = golomb_code_array(
                position_gaps, position_codec.parameter
            )
            if bool(pos_overflow.any()):
                return None
            patterns = np.concatenate([patterns, pos_patterns])
            lengths = np.concatenate([lengths, pos_lengths])
        return pack_patterns(patterns, lengths)

    def decode_docs_counts_flat(
        self,
        buffer: np.ndarray,
        byte_offsets: np.ndarray,
        lengths: np.ndarray,
        dfs: np.ndarray,
        context: PostingsContext,
        cfs: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Section-A decode of many lists into flat lane-major arrays.

        List ``i`` is the ``lengths[i]`` bytes at ``byte_offsets[i]``
        of the uint8 array ``buffer``, holding ``dfs[i]`` entries.
        Returns ``(docs, counts)`` int64 arrays concatenating every
        list's entries in request order (list ``i`` occupies
        ``cumsum(dfs)[i-1] : cumsum(dfs)[i]``).  Under the default codecs
        the whole batch decodes in one table build; lists the block
        decoder cannot finish are spliced through the scalar loop, so
        the values (and any exception) match the per-list path exactly.
        Under any other codec this is just the per-list decode
        concatenated — same arrays, same order.
        """
        total = int(dfs.sum())
        if self._fast_decodable() and total:
            docs, counts, ok = fastunpack.decode_docs_counts_flat(
                buffer,
                byte_offsets,
                lengths,
                dfs,
                self._doc_parameters(dfs, context),
                cfs,
                context.num_sequences,
            )
            if ok.all():
                return docs, counts
            redo = np.flatnonzero(~ok)
        else:
            docs = np.empty(total, dtype=np.int64)
            counts = np.empty(total, dtype=np.int64)
            redo = np.arange(dfs.shape[0])
        first = np.cumsum(dfs) - dfs
        for slot in redo.tolist():
            start = int(first[slot])
            stop = start + int(dfs[slot])
            docs[start:stop], counts[start:stop] = self.decode_docs_counts(
                _list_bytes(buffer, byte_offsets, lengths, slot),
                int(dfs[slot]),
                context,
            )
        return docs, counts

    def decode_docs_counts(
        self, data: bytes, df: int, context: PostingsContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode section A only: (ordinals, counts) as int64 arrays.

        The pure-Python reference decode.  A lone list gains nothing
        from the numpy block decoder (see docs/KERNELS.md), which pays
        its dispatch cost per *batch* and serves
        :meth:`decode_docs_counts_flat` instead.
        """
        doc_codec = self._doc_codec(df, context)
        reader = BitReader(data)
        docs = np.empty(df, dtype=np.int64)
        counts = np.empty(df, dtype=np.int64)
        previous_doc = -1
        for slot in range(df):
            previous_doc += doc_codec.decode_value(reader) + 1
            docs[slot] = previous_doc
            counts[slot] = self._count_codec.decode_value(reader) + 1
        return docs, counts

    def decode(
        self, data: bytes, df: int, cf: int, context: PostingsContext
    ) -> list[PostingEntry]:
        """Decode the full list including occurrence offsets.

        Raises:
            CodecError: if the codec was built without positions.
        """
        if not self.include_positions:
            raise CodecError("this index stores no occurrence offsets")
        doc_codec = self._doc_codec(df, context)
        position_codec = self._position_codec(df, cf, context)
        reader = BitReader(data)
        docs = np.empty(df, dtype=np.int64)
        counts = np.empty(df, dtype=np.int64)
        previous_doc = -1
        for slot in range(df):
            previous_doc += doc_codec.decode_value(reader) + 1
            docs[slot] = previous_doc
            counts[slot] = self._count_codec.decode_value(reader) + 1
        entries = []
        for slot in range(df):
            previous_position = -1
            positions = np.empty(counts[slot], dtype=np.int64)
            for occurrence in range(int(counts[slot])):
                previous_position += position_codec.decode_value(reader) + 1
                positions[occurrence] = previous_position
            entries.append(PostingEntry(int(docs[slot]), positions))
        return entries

    def decode_postings_flat(
        self,
        buffer: np.ndarray,
        byte_offsets: np.ndarray,
        lengths: np.ndarray,
        dfs: np.ndarray,
        cfs: np.ndarray,
        context: PostingsContext,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full decode (offsets included) of many lists as flat arrays.

        The lists are laid out as for :meth:`decode_docs_counts_flat`.
        Returns ``(docs, counts, offsets)``: every list's entries
        concatenated in request order, and each entry's occurrence
        offsets (``counts`` long each) concatenated likewise.  Lists
        the block decoder cannot finish cleanly are re-decoded with the
        scalar loop, so values and exceptions match :meth:`decode`
        exactly.
        """
        decoded: list[
            tuple[np.ndarray, np.ndarray, np.ndarray] | None
        ]
        if self._fast_decodable() and self.include_positions:
            position_parameters = np.fromiter(
                (
                    self._position_parameter(df, cf, context)
                    for df, cf in zip(dfs.tolist(), cfs.tolist())
                ),
                dtype=np.int64,
                count=dfs.shape[0],
            )
            decoded = fastunpack.decode_postings_batch(
                buffer,
                byte_offsets,
                lengths,
                dfs,
                self._doc_parameters(dfs, context),
                position_parameters,
            )
        else:
            decoded = [None] * dfs.shape[0]
        parts = []
        for slot, fast in enumerate(decoded):
            if fast is None:
                entries = self.decode(
                    _list_bytes(buffer, byte_offsets, lengths, slot),
                    int(dfs[slot]),
                    int(cfs[slot]),
                    context,
                )
                fast = (
                    np.array([e.sequence for e in entries], dtype=np.int64),
                    np.array([e.count for e in entries], dtype=np.int64),
                    np.concatenate(
                        [e.positions for e in entries]
                        + [np.empty(0, dtype=np.int64)]
                    ),
                )
            parts.append(fast)
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        return tuple(
            np.concatenate([part[field] for part in parts])
            for field in range(3)
        )

    def describe(self) -> dict[str, object]:
        """Codec configuration as a plain dict (for index headers)."""
        return {
            "doc_codec": self.doc_codec_name,
            "count_codec": self.count_codec_name,
            "position_codec": self.position_codec_name,
            "include_positions": self.include_positions,
        }

    @classmethod
    def from_description(cls, description: dict[str, object]) -> "PostingsCodec":
        """Rebuild a codec from :meth:`describe` output."""
        return cls(
            doc_codec=str(description["doc_codec"]),
            count_codec=str(description["count_codec"]),
            position_codec=str(description["position_codec"]),
            include_positions=bool(description["include_positions"]),
        )


def _list_bytes(
    buffer: np.ndarray,
    byte_offsets: np.ndarray,
    lengths: np.ndarray,
    slot: int,
) -> bytes:
    """List ``slot``'s bytes, for the scalar decode."""
    start = int(byte_offsets[slot])
    return bytes(buffer[start : start + int(lengths[slot])])
