"""Round-trip tests for the vectorised block decoder.

Every flat decode surface — flat batch, full postings with offsets —
must be bit-identical to the scalar per-list decode
(``PostingsCodec.decode_docs_counts`` / ``decode``), including which
errors surface: the block decoder is allowed to be faster, never
different.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.index.postings import PostingEntry, PostingsCodec, PostingsContext

CONTEXT = PostingsContext(num_sequences=100, total_length=50_000)


def make_entries(spec):
    return [
        PostingEntry(doc, np.array(positions, dtype=np.int64))
        for doc, positions in spec
    ]


def encode_batch(codec, batch, context=CONTEXT):
    """Encode a list of posting-list specs into (blobs, dfs, cfs)."""
    blobs, dfs, cfs = [], [], []
    for spec in batch:
        entries = make_entries(spec)
        blobs.append(codec.encode(entries, context))
        dfs.append(len(spec))
        cfs.append(sum(len(positions) for _, positions in spec))
    return blobs, dfs, cfs


def packed(blobs, dfs):
    """The flat decoders' list layout over ``blobs``: ``(buffer,
    byte_offsets, lengths, dfs)`` with the blobs back to back."""
    lengths = np.array([len(blob) for blob in blobs], dtype=np.int64)
    return (
        np.frombuffer(b"".join(blobs), dtype=np.uint8),
        np.cumsum(lengths) - lengths,
        lengths,
        np.asarray(dfs, dtype=np.int64),
    )


def flat_reference(codec, batch, context=CONTEXT):
    """The flat layout derived from the scalar per-list decode."""
    docs_parts, counts_parts = [], []
    blobs, dfs, cfs = encode_batch(codec, batch, context)
    for blob, df, cf in zip(blobs, dfs, cfs):
        entries = codec.decode(blob, df, cf, context)
        docs_parts.append([entry.sequence for entry in entries])
        counts_parts.append([entry.positions.shape[0] for entry in entries])
    docs = np.array(
        [doc for part in docs_parts for doc in part], dtype=np.int64
    )
    counts = np.array(
        [count for part in counts_parts for count in part], dtype=np.int64
    )
    return docs, counts


@st.composite
def posting_batches(draw):
    """A batch of valid posting lists over the shared context."""
    num_lists = draw(st.integers(min_value=1, max_value=8))
    batch = []
    for _ in range(num_lists):
        num_docs = draw(st.integers(min_value=1, max_value=10))
        docs = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=99),
                    min_size=num_docs,
                    max_size=num_docs,
                )
            )
        )
        batch.append(
            [
                (
                    doc,
                    sorted(
                        draw(
                            st.sets(
                                st.integers(min_value=0, max_value=499),
                                min_size=1,
                                max_size=6,
                            )
                        )
                    ),
                )
                for doc in docs
            ]
        )
    return batch


class TestFlatRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(posting_batches())
    def test_flat_decode_matches_the_scalar_decode(self, batch):
        codec = PostingsCodec()
        blobs, dfs, cfs = encode_batch(codec, batch)
        docs_ref, counts_ref = flat_reference(codec, batch)
        docs, counts = codec.decode_docs_counts_flat(
            *packed(blobs, dfs), CONTEXT, cfs=np.asarray(cfs)
        )
        assert np.array_equal(docs, docs_ref)
        assert np.array_equal(counts, counts_ref)

    def test_single_entry_lists(self):
        codec = PostingsCodec()
        batch = [[(0, [5])], [(99, [0, 499])], [(42, [250])]]
        blobs, dfs, cfs = encode_batch(codec, batch)
        docs_ref, counts_ref = flat_reference(codec, batch)
        docs, counts = codec.decode_docs_counts_flat(
            *packed(blobs, dfs), CONTEXT, cfs=np.asarray(cfs)
        )
        assert np.array_equal(docs, docs_ref)
        assert np.array_equal(counts, counts_ref)

    def test_empty_batch(self):
        codec = PostingsCodec()
        docs, counts = codec.decode_docs_counts_flat(
            *packed([], []), CONTEXT,
            cfs=np.zeros(0, dtype=np.int64),
        )
        assert docs.shape == (0,)
        assert counts.shape == (0,)

    def test_parameter_one_lists(self):
        # Every document present: the doc-gap Golomb parameter collapses
        # to 1 (pure unary), the narrowest remainder field there is.
        context = PostingsContext(num_sequences=8, total_length=5_000)
        codec = PostingsCodec()
        batch = [
            [(doc, [doc * 3 + 1]) for doc in range(8)],
            [(doc, [10, 20]) for doc in range(8)],
        ]
        blobs, dfs, cfs = encode_batch(codec, batch, context)
        docs_ref, counts_ref = flat_reference(codec, batch, context)
        docs, counts = codec.decode_docs_counts_flat(
            *packed(blobs, dfs), context, cfs=np.asarray(cfs)
        )
        assert np.array_equal(docs, docs_ref)
        assert np.array_equal(counts, counts_ref)

    def test_wide_parameter_lists_fall_back_identically(self):
        # A huge universe pushes the Golomb remainder field past the
        # 32-bit window the table reader serves; those lanes must take
        # the scalar fallback and still return identical values.
        context = PostingsContext(
            num_sequences=2**40, total_length=5_000
        )
        codec = PostingsCodec()
        batch = [
            [(0, [5]), (2**30, [7]), (2**39, [1, 2])],
            [(123_456_789, [10])],
            [(1, [3]), (2, [4]), (2**35 + 17, [5])],
        ] * 2
        blobs, dfs, cfs = encode_batch(codec, batch, context)
        docs_ref, counts_ref = flat_reference(codec, batch, context)
        docs, counts = codec.decode_docs_counts_flat(
            *packed(blobs, dfs), context, cfs=np.asarray(cfs)
        )
        assert np.array_equal(docs, docs_ref)
        assert np.array_equal(counts, counts_ref)

    def test_truncated_blob_raises(self):
        codec = PostingsCodec()
        batch = [[(doc, [doc + 1, doc + 50]) for doc in range(0, 60, 3)]]
        blobs, dfs, cfs = encode_batch(codec, batch)
        clipped = [blobs[0][: max(1, len(blobs[0]) // 4)]]
        with pytest.raises(CodecError):
            codec.decode_docs_counts(clipped[0], dfs[0], CONTEXT)
        with pytest.raises(CodecError):
            codec.decode_docs_counts_flat(*packed(clipped, dfs), CONTEXT)


class TestListsReadInPlace:
    @settings(deadline=None, max_examples=25)
    @given(posting_batches(), st.integers(min_value=0, max_value=7))
    def test_scattered_layout_decodes_like_packed(self, batch, gap):
        """Each list is read at its own offset of one buffer — in
        reverse order, with foreign bytes between — as an index file's
        memory map presents them, and decodes exactly as packed."""
        codec = PostingsCodec()
        blobs, dfs, cfs = encode_batch(codec, batch)
        layout = bytearray(b"\xff" * gap)
        offsets = [0] * len(blobs)
        for slot in reversed(range(len(blobs))):
            offsets[slot] = len(layout)
            layout += blobs[slot] + b"\xff" * gap
        scattered = (
            np.frombuffer(bytes(layout), dtype=np.uint8),
            np.array(offsets, dtype=np.int64),
            np.array([len(blob) for blob in blobs], dtype=np.int64),
            np.asarray(dfs, dtype=np.int64),
        )
        cfs = np.asarray(cfs, dtype=np.int64)
        for got, want in zip(
            codec.decode_docs_counts_flat(*scattered, CONTEXT, cfs=cfs),
            codec.decode_docs_counts_flat(
                *packed(blobs, dfs), CONTEXT, cfs=cfs
            ),
        ):
            assert np.array_equal(got, want)
        for got, want in zip(
            codec.decode_postings_flat(*scattered, cfs, CONTEXT),
            codec.decode_postings_flat(
                *packed(blobs, dfs), cfs, CONTEXT
            ),
        ):
            assert np.array_equal(got, want)


class TestPostingsBatch:
    @settings(deadline=None, max_examples=25)
    @given(posting_batches())
    def test_positions_match_the_scalar_decode(self, batch):
        codec = PostingsCodec()
        blobs, dfs, cfs = encode_batch(codec, batch)
        reference = [
            codec.decode(blob, df, cf, CONTEXT)
            for blob, df, cf in zip(blobs, dfs, cfs)
        ]
        entries = [entry for expected in reference for entry in expected]
        docs, counts, offsets = codec.decode_postings_flat(
            *packed(blobs, dfs), np.asarray(cfs), CONTEXT
        )
        assert docs.tolist() == [entry.sequence for entry in entries]
        assert counts.tolist() == [entry.count for entry in entries]
        got = np.split(offsets, np.cumsum(counts)[:-1]) if entries else []
        for chunk, entry in zip(got, entries):
            assert np.array_equal(chunk, entry.positions)

    def test_grouped_batch_matches_per_list(self):
        codec = PostingsCodec()
        batch = [
            [(doc, [doc, doc + 7]) for doc in range(0, 40, 5)],
            [(3, [1, 2, 3, 4])],
            [(doc, [99]) for doc in (1, 2, 50, 99)],
        ]
        blobs, dfs, cfs = encode_batch(codec, batch)
        expected = [
            codec.decode_docs_counts(blob, df, CONTEXT)
            for blob, df in zip(blobs, dfs)
        ]
        docs, counts = codec.decode_docs_counts_flat(
            *packed(blobs, dfs), CONTEXT, cfs=np.asarray(cfs)
        )
        bounds = np.cumsum(dfs)[:-1]
        results = zip(np.split(docs, bounds), np.split(counts, bounds))
        for got, want in zip(results, expected):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
