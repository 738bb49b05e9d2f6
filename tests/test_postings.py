"""Unit and property tests for compressed posting lists."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError, IndexFormatError
from repro.index.builder import IndexParameters
from repro.index.postings import (
    HEADER_CODEC_KEYS,
    PostingEntry,
    PostingsCodec,
    PostingsContext,
    check_header_codecs,
)
from tests.conftest import encode_with_offsets

CONTEXT = PostingsContext(num_sequences=100, total_length=50_000)


def make_entries(spec: list[tuple[int, list[int]]]) -> list[PostingEntry]:
    return [PostingEntry(doc, len(positions)) for doc, positions in spec]


@st.composite
def posting_lists(draw):
    """Strategy: a valid (sorted docs, sorted positive positions) list."""
    num_docs = draw(st.integers(min_value=1, max_value=12))
    docs = sorted(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=99),
                min_size=num_docs,
                max_size=num_docs,
            )
        )
    )
    spec = []
    for doc in docs:
        positions = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=499),
                    min_size=1,
                    max_size=8,
                )
            )
        )
        spec.append((doc, positions))
    return spec


class TestRoundTrip:
    @given(posting_lists())
    def test_full_roundtrip_default_codecs(self, spec):
        codec = PostingsCodec()
        entries = make_entries(spec)
        data = codec.encode(entries, CONTEXT)
        docs, counts = codec.decode_docs_counts(data, len(entries), CONTEXT)
        assert docs.tolist() == [doc for doc, _ in spec]
        assert counts.tolist() == [len(positions) for _, positions in spec]

    @given(posting_lists())
    def test_section_a_matches_full_decode(self, spec):
        """A list written with its offsets decodes to the same entries
        as the list alone, and the list alone is its entry prefix."""
        codec = PostingsCodec()
        entries = make_entries(spec)
        data = codec.encode(entries, CONTEXT)
        old = encode_with_offsets(spec, CONTEXT)
        assert old.startswith(data[:-1])
        assert [
            array.tolist()
            for array in codec.decode_docs_counts(old, len(spec), CONTEXT)
        ] == [
            array.tolist()
            for array in codec.decode_docs_counts(data, len(spec), CONTEXT)
        ]

    @pytest.mark.parametrize(
        "doc_codec,count_codec,position_codec",
        [
            ("golomb", "gamma", "golomb"),
            ("gamma", "gamma", "gamma"),
            ("delta", "delta", "delta"),
            ("vbyte", "vbyte", "vbyte"),
            ("rice", "gamma", "rice"),
        ],
    )
    def test_roundtrip_across_codec_choices(
        self, doc_codec, count_codec, position_codec
    ):
        """A header round-trips only when it names the one codec."""
        description = dict(
            IndexParameters(interval_length=6).describe(),
            doc_codec=doc_codec,
            count_codec=count_codec,
            position_codec=position_codec,
        )
        if (doc_codec, count_codec, position_codec) == (
            "golomb", "gamma", "golomb"
        ):
            assert IndexParameters.from_description(
                description
            ) == IndexParameters(interval_length=6)
        else:
            with pytest.raises(IndexFormatError, match="unsupported"):
                IndexParameters.from_description(description)

    def test_docs_only_mode(self):
        codec = PostingsCodec()
        entries = make_entries([(1, [5, 9]), (4, [0])])
        data = codec.encode(entries, CONTEXT)
        docs, counts = codec.decode_docs_counts(data, 2, CONTEXT)
        assert docs.tolist() == [1, 4]
        assert counts.tolist() == [2, 1]

    def test_docs_only_is_smaller(self):
        spec = [(d, list(range(0, 40, 5))) for d in range(0, 50, 5)]
        without = PostingsCodec().encode(make_entries(spec), CONTEXT)
        assert len(without) < len(encode_with_offsets(spec, CONTEXT))


class TestValidation:
    def test_unsorted_entries_rejected(self):
        codec = PostingsCodec()
        entries = make_entries([(5, [1]), (2, [1])])
        with pytest.raises(CodecError, match="sorted"):
            codec.encode(entries, CONTEXT)

    def test_duplicate_docs_rejected(self):
        codec = PostingsCodec()
        entries = make_entries([(5, [1]), (5, [2])])
        with pytest.raises(CodecError, match="sorted"):
            codec.encode(entries, CONTEXT)

    def test_empty_positions_rejected(self):
        codec = PostingsCodec()
        entries = [PostingEntry(0, 0)]
        with pytest.raises(CodecError, match="zero occurrences"):
            codec.encode(entries, CONTEXT)

    def test_unknown_codec_name(self):
        with pytest.raises(IndexFormatError, match="doc_codec='lzw'"):
            check_header_codecs(dict(HEADER_CODEC_KEYS, doc_codec="lzw"))
        with pytest.raises(IndexFormatError, match="count_codec"):
            check_header_codecs({"doc_codec": "golomb"})

    def test_empty_list_roundtrip(self):
        codec = PostingsCodec()
        data = codec.encode([], CONTEXT)
        docs, counts = codec.decode_docs_counts(data, 0, CONTEXT)
        assert docs.shape == (0,)
        assert counts.shape == (0,)


class TestDescription:
    def test_describe_roundtrip(self):
        """A header written with offsets describes the same index shape
        as one written without."""
        params = IndexParameters(interval_length=5, stride=2)
        old = dict(params.describe(), include_positions=True)
        assert IndexParameters.from_description(old) == params
        assert IndexParameters.from_description(params.describe()) == params

    def test_decoder_derives_same_golomb_parameters(self):
        """Encode and decode are separate codec instances (as when the
        index is reloaded from disk): parameters must be derivable."""
        spec = [(d, [d * 3, d * 3 + 1]) for d in range(0, 60, 3)]
        data = PostingsCodec().encode(make_entries(spec), CONTEXT)
        docs, counts = PostingsCodec().decode_docs_counts(
            data, len(spec), CONTEXT
        )
        assert docs.tolist() == [doc for doc, _ in spec]
        assert counts.tolist() == [2] * len(spec)


class TestContext:
    def test_mean_length(self):
        assert PostingsContext(10, 1000).mean_length == 100.0

    def test_mean_length_floor(self):
        assert PostingsContext(0, 0).mean_length == 1.0
        assert PostingsContext(10, 1).mean_length == 1.0
