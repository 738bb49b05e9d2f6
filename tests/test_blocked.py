"""Unit and property tests for self-indexing (skip-pointer) postings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitio import BitReader, BitWriter
from repro.errors import BitStreamError, CodecError, CodecValueError
from repro.index.blocked import BlockedPostings
from repro.index.postings import PostingsContext

CONTEXT = PostingsContext(num_sequences=500, total_length=250_000)


@st.composite
def doc_count_lists(draw):
    docs = sorted(
        draw(
            st.sets(st.integers(min_value=0, max_value=499), min_size=1,
                    max_size=120)
        )
    )
    counts = [
        draw(st.integers(min_value=1, max_value=40)) for _ in docs
    ]
    return np.array(docs, dtype=np.int64), np.array(counts, dtype=np.int64)


class TestBitPrimitives:
    def test_write_bit_chunk_splices_exactly(self):
        inner = BitWriter()
        inner.write_bits(0b10110, 5)
        outer = BitWriter()
        outer.write_bits(0b1, 1)
        outer.write_bit_chunk(inner.getvalue(), inner.bit_length)
        reader = BitReader(outer.getvalue())
        assert reader.read_bits(6) == 0b110110

    def test_write_bit_chunk_validates_length(self):
        with pytest.raises(CodecValueError):
            BitWriter().write_bit_chunk(b"x", 9)

    def test_skip_bits_lands_correctly(self):
        writer = BitWriter()
        writer.write_bits(0xABCD, 16)
        writer.write_bits(0b101, 3)
        reader = BitReader(writer.getvalue())
        reader.skip_bits(16)
        assert reader.read_bits(3) == 0b101

    def test_skip_bits_across_buffered_boundary(self):
        writer = BitWriter()
        writer.write_bits(0x12345678, 32)
        writer.write_bits(0x9A, 8)
        reader = BitReader(writer.getvalue())
        reader.read_bits(4)  # leaves 4 buffered bits
        reader.skip_bits(28)
        assert reader.read_bits(8) == 0x9A

    def test_skip_bits_exhaustion(self):
        reader = BitReader(b"ab")
        with pytest.raises(BitStreamError):
            reader.skip_bits(17)

    def test_skip_negative(self):
        with pytest.raises(CodecValueError):
            BitReader(b"a").skip_bits(-1)


class TestBlockedRoundTrip:
    def test_block_size_validation(self):
        with pytest.raises(CodecError):
            BlockedPostings(block_size=0)

    def test_unsorted_rejected(self):
        codec = BlockedPostings()
        with pytest.raises(CodecError):
            codec.encode(
                np.array([5, 3]), np.array([1, 1]), CONTEXT
            )

    def test_zero_count_rejected(self):
        codec = BlockedPostings()
        with pytest.raises(CodecError):
            codec.encode(np.array([1]), np.array([0]), CONTEXT)

    def test_mismatched_arrays_rejected(self):
        codec = BlockedPostings()
        with pytest.raises(CodecError):
            codec.encode(np.array([1, 2]), np.array([1]), CONTEXT)

    def test_empty_list(self):
        codec = BlockedPostings()
        data = codec.encode(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), CONTEXT
        )
        docs, counts = codec.decode_all(data, 0, CONTEXT)
        assert docs.shape == (0,)
        assert counts.shape == (0,)

    @pytest.mark.parametrize("block_size", [1, 2, 7, 32, 1000])
    def test_roundtrip_across_block_sizes(self, block_size):
        rng = np.random.default_rng(3)
        docs = np.unique(rng.integers(0, 500, size=90)).astype(np.int64)
        counts = rng.integers(1, 20, size=docs.shape[0]).astype(np.int64)
        codec = BlockedPostings(block_size=block_size)
        data = codec.encode(docs, counts, CONTEXT)
        out_docs, out_counts = codec.decode_all(data, docs.shape[0], CONTEXT)
        assert out_docs.tolist() == docs.tolist()
        assert out_counts.tolist() == counts.tolist()

    @given(pair=doc_count_lists())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, pair):
        docs, counts = pair
        codec = BlockedPostings(block_size=8)
        data = codec.encode(docs, counts, CONTEXT)
        out_docs, out_counts = codec.decode_all(data, docs.shape[0], CONTEXT)
        assert out_docs.tolist() == docs.tolist()
        assert out_counts.tolist() == counts.tolist()


class TestCandidateDecoding:
    @given(pair=doc_count_lists(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_candidates_match_full_decode(self, pair, data):
        docs, counts = pair
        codec = BlockedPostings(block_size=8)
        encoded = codec.encode(docs, counts, CONTEXT)
        wanted = data.draw(
            st.sets(st.integers(min_value=0, max_value=499), max_size=15)
        )
        found = codec.decode_candidates(
            encoded, docs.shape[0], CONTEXT, wanted
        )
        expected = {
            int(doc): int(count)
            for doc, count in zip(docs, counts)
            if int(doc) in wanted
        }
        assert found == expected

    def test_empty_wanted_set(self):
        codec = BlockedPostings()
        data = codec.encode(np.array([3]), np.array([2]), CONTEXT)
        assert codec.decode_candidates(data, 1, CONTEXT, []) == {}

    def test_wanted_outside_list(self):
        codec = BlockedPostings()
        data = codec.encode(
            np.array([10, 20]), np.array([1, 1]), CONTEXT
        )
        assert codec.decode_candidates(data, 2, CONTEXT, [5, 15, 25]) == {}

    def test_skipping_is_cheaper_than_decoding(self, monkeypatch):
        """Fetching one ordinal from a long list decodes only the block
        that holds it, where a full decode touches every block — the
        reason the directory exists."""
        rng = np.random.default_rng(11)
        big_context = PostingsContext(num_sequences=200_000,
                                      total_length=10**8)
        docs = np.unique(
            rng.integers(0, 200_000, size=20_000)
        ).astype(np.int64)
        counts = rng.integers(1, 5, size=docs.shape[0]).astype(np.int64)
        codec = BlockedPostings(block_size=64)
        data = codec.encode(docs, counts, big_context)

        decoded_blocks = []
        decode_block = BlockedPostings._decode_block

        def counting_decode_block(self, reader, first_doc, entries, gaps):
            decoded_blocks.append(first_doc)
            return decode_block(self, reader, first_doc, entries, gaps)

        monkeypatch.setattr(
            BlockedPostings, "_decode_block", counting_decode_block
        )
        wanted = 64 * 150 + 17
        found = codec.decode_candidates(
            data, docs.shape[0], big_context, [int(docs[wanted])]
        )
        assert found == {int(docs[wanted]): int(counts[wanted])}
        assert decoded_blocks == [int(docs[64 * 150])]

        decoded_blocks.clear()
        codec.decode_all(data, docs.shape[0], big_context)
        assert decoded_blocks == docs[::64].tolist()
