"""Round-trip tests for the vectorised block decoder.

The flat batch decode must be bit-identical to the scalar per-list
decode (``PostingsCodec.decode_docs_counts``), including which errors
surface, over lists as written today and over lists written with
occurrence offsets after their entries: the block decoder is allowed
to be faster, never different.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.index.postings import PostingEntry, PostingsCodec, PostingsContext
from tests.conftest import encode_with_offsets

CONTEXT = PostingsContext(num_sequences=100, total_length=50_000)


def make_entries(spec):
    return [PostingEntry(doc, len(positions)) for doc, positions in spec]


def encode_batch(codec, batch, context=CONTEXT, offsets=False):
    """Encode a list of posting-list specs into (blobs, dfs, cfs); with
    ``offsets`` each list also carries its offset section."""
    blobs, dfs, cfs = [], [], []
    for spec in batch:
        blobs.append(
            encode_with_offsets(spec, context) if offsets
            else codec.encode(make_entries(spec), context)
        )
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


def flat_reference(codec, batch, context=CONTEXT, offsets=False):
    """The flat layout derived from the scalar per-list decode."""
    blobs, dfs, _ = encode_batch(codec, batch, context, offsets)
    parts = [
        codec.decode_docs_counts(blob, df, context)
        for blob, df in zip(blobs, dfs)
    ]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return (
        np.concatenate([docs for docs, _ in parts]),
        np.concatenate([counts for _, counts in parts]),
    )


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


class TestPostingsBatch:
    @settings(deadline=None, max_examples=25)
    @given(posting_batches())
    def test_positions_match_the_scalar_decode(self, batch):
        """Lists written with their offsets batch-decode (clipped to
        the provable entry bound) exactly as the scalar decode, and as
        the same lists written without offsets."""
        codec = PostingsCodec()
        blobs, dfs, cfs = encode_batch(codec, batch, offsets=True)
        docs_ref, counts_ref = flat_reference(codec, batch, offsets=True)
        docs, counts = codec.decode_docs_counts_flat(
            *packed(blobs, dfs), CONTEXT, cfs=np.asarray(cfs)
        )
        assert np.array_equal(docs, docs_ref)
        assert np.array_equal(counts, counts_ref)
        new_docs, new_counts = flat_reference(codec, batch)
        assert np.array_equal(docs, new_docs)
        assert np.array_equal(counts, new_counts)

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
