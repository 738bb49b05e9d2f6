"""Unit and property tests for the integer codecs (all families)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.elias import EliasDeltaCodec, EliasGammaCodec
from repro.compression.golomb import GolombCodec, RiceCodec
from repro.compression.integer import FixedWidthCodec, UnaryCodec
from repro.compression.vbyte import VByteCodec
from repro.errors import BitStreamError, CodecValueError

# Unary-quotient codecs (Golomb/Rice with small parameters) have code
# lengths linear in value/parameter, so property tests must bound the
# values or a single example costs billions of bits.
UNARY_QUOTIENT_CODECS = [
    GolombCodec(1),
    GolombCodec(2),
    GolombCodec(5),
    GolombCodec(64),
    RiceCodec(0),
    RiceCodec(4),
]
LOG_COST_CODECS = [
    EliasGammaCodec(),
    EliasDeltaCodec(),
    VByteCodec(),
    FixedWidthCodec(40),
]
ALL_CODECS = UNARY_QUOTIENT_CODECS + LOG_COST_CODECS
# Fixed case labels, one per entry of ALL_CODECS, so every case keeps the
# same test name from run to run. The numeric suffixes are arbitrary.
LOG_COST_IDS = ["gamma-90", "delta-65", "vbyte-32", "fixed-75"]
ALL_CODEC_IDS = [
    "golomb-21",
    "golomb-30",
    "golomb-42",
    "golomb-96",
    "rice-91",
    "rice-9",
] + LOG_COST_IDS

large_values = st.lists(st.integers(min_value=0, max_value=2**32), max_size=80)


@pytest.mark.parametrize(
    "codec", UNARY_QUOTIENT_CODECS, ids=lambda c: f"{c.name}-b{c.parameter}"
)
class TestUnaryQuotientCodecs:
    """Codecs whose length is linear in value/parameter: property values
    are scaled to the parameter, as real gap distributions are."""

    @given(data=st.data())
    def test_roundtrip(self, codec, data):
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=codec.parameter * 300),
                max_size=60,
            )
        )
        encoded = codec.encode_array(values)
        assert codec.decode_array(encoded, len(values)) == values


@pytest.mark.parametrize("codec", LOG_COST_CODECS, ids=LOG_COST_IDS)
class TestLogCostCodecs:
    @given(values=large_values)
    def test_roundtrip(self, codec, values):
        data = codec.encode_array(values)
        assert codec.decode_array(data, len(values)) == values


@pytest.mark.parametrize("codec", ALL_CODECS, ids=ALL_CODEC_IDS)
class TestAllCodecs:
    def test_rejects_negative(self, codec):
        with pytest.raises(CodecValueError):
            codec.encode_array([-1])

    def test_code_length_matches_encoding(self, codec):
        for value in [0, 1, 2, 7, 63, 1000, 4093]:
            writer = BitWriter()
            codec.encode_value(writer, value)
            assert writer.bit_length == codec.code_length(value)

    def test_empty_array(self, codec):
        assert codec.decode_array(codec.encode_array([]), 0) == []

    def test_truncated_stream_raises(self, codec):
        data = codec.encode_array([5])
        with pytest.raises(BitStreamError):
            codec.decode_array(data, 100)


class TestGammaLayout:
    def test_known_codes(self):
        # gamma(n) encodes n+1; n=0 -> "0" (1 bit), n=2 -> "1" "1" remainder.
        codec = EliasGammaCodec()
        assert codec.code_length(0) == 1
        assert codec.code_length(1) == 3
        assert codec.code_length(2) == 3
        assert codec.code_length(3) == 5

    def test_first_bits(self):
        writer = BitWriter()
        EliasGammaCodec().encode_value(writer, 0)
        assert writer.getvalue() == bytes([0b00000000])


class TestDeltaVsGamma:
    def test_delta_shorter_for_large_values(self):
        gamma = EliasGammaCodec()
        delta = EliasDeltaCodec()
        assert delta.code_length(10**6) < gamma.code_length(10**6)

    def test_gamma_shorter_for_tiny_values(self):
        gamma = EliasGammaCodec()
        delta = EliasDeltaCodec()
        assert gamma.code_length(1) <= delta.code_length(1)


class TestUnary:
    def test_roundtrip_small(self):
        codec = UnaryCodec()
        values = [0, 3, 1, 7, 0]
        assert codec.decode_array(codec.encode_array(values), 5) == values

    def test_code_length_linear(self):
        assert UnaryCodec().code_length(9) == 10


class TestFixedWidth:
    def test_width_must_be_positive(self):
        with pytest.raises(CodecValueError):
            FixedWidthCodec(0)

    def test_value_too_large_for_width(self):
        codec = FixedWidthCodec(4)
        with pytest.raises(CodecValueError):
            codec.encode_array([16])

    def test_boundary_value(self):
        codec = FixedWidthCodec(4)
        assert codec.decode_array(codec.encode_array([15]), 1) == [15]


class TestInterleavedStreams:
    """Different codecs must coexist in one bit stream (as postings do)."""

    def test_gamma_then_golomb_then_vbyte(self):
        gamma, golomb, vbyte = EliasGammaCodec(), GolombCodec(6), VByteCodec()
        writer = BitWriter()
        gamma.encode_value(writer, 12)
        golomb.encode_value(writer, 40)
        vbyte.encode_value(writer, 300)
        gamma.encode_value(writer, 0)
        reader = BitReader(writer.getvalue())
        assert gamma.decode_value(reader) == 12
        assert golomb.decode_value(reader) == 40
        assert vbyte.decode_value(reader) == 300
        assert gamma.decode_value(reader) == 0
