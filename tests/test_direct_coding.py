"""Unit and property tests for direct (cino-style) sequence coding."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import direct
from repro.compression.direct import (
    decode_sequence,
    encode_sequence,
    encode_sequences,
    measure,
    raw_two_bit_size,
)
from repro.errors import CodecError
from repro.sequences import alphabet

iupac_text = st.text(alphabet=alphabet.IUPAC_ALPHABET, max_size=300)
base_text = st.text(alphabet="ACGT", min_size=1, max_size=300)


class TestRoundTrip:
    @given(iupac_text)
    def test_any_iupac_string(self, text):
        codes = alphabet.encode(text)
        assert np.array_equal(decode_sequence(encode_sequence(codes)), codes)

    def test_empty_sequence(self):
        empty = np.empty(0, dtype=np.uint8)
        assert decode_sequence(encode_sequence(empty)).shape == (0,)

    def test_all_wildcards(self):
        codes = alphabet.encode("NNNNRYKWBD")
        assert np.array_equal(decode_sequence(encode_sequence(codes)), codes)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65])
    def test_padding_boundaries(self, length):
        codes = (np.arange(length) % 4).astype(np.uint8)
        assert np.array_equal(decode_sequence(encode_sequence(codes)), codes)

    def test_rejects_out_of_alphabet_codes(self):
        with pytest.raises(CodecError):
            encode_sequence(np.array([50], dtype=np.uint8))


class TestCompression:
    def test_close_to_two_bits_per_base_without_wildcards(self):
        rng = np.random.default_rng(1)
        sequences = [
            rng.integers(0, 4, 4000, dtype=np.uint8) for _ in range(5)
        ]
        stats = measure(sequences)
        assert stats.total_wildcards == 0
        assert 2.0 <= stats.bits_per_base <= 2.05

    def test_wildcards_cost_extra_but_bounded(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 4, 4000, dtype=np.uint8)
        codes[rng.random(4000) < 0.01] = 14  # 1% N
        stats = measure([codes])
        assert 2.0 < stats.bits_per_base < 2.4

    def test_much_smaller_than_ascii(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, 10_000, dtype=np.uint8)
        assert len(encode_sequence(codes)) < 10_000 / 3.5

    def test_raw_two_bit_size(self):
        assert raw_two_bit_size(0) == 0
        assert raw_two_bit_size(4) == 1
        assert raw_two_bit_size(5) == 2
        with pytest.raises(CodecError):
            raw_two_bit_size(-1)

    def test_measure_totals(self):
        stats = measure([alphabet.encode("ACGTN"), alphabet.encode("AA")])
        assert stats.total_bases == 6
        assert stats.total_wildcards == 1
        assert stats.compressed_bytes > 0

    def test_empty_measure(self):
        stats = measure([])
        assert stats.bits_per_base == 0.0


class TestWildcardPlacement:
    @given(
        base_text,
        st.lists(st.integers(min_value=0, max_value=298), max_size=12),
    )
    def test_wildcards_at_arbitrary_positions(self, text, positions):
        codes = alphabet.encode(text)
        for position in positions:
            if position < codes.shape[0]:
                codes[position] = 14  # N
        assert np.array_equal(decode_sequence(encode_sequence(codes)), codes)

    def test_wildcard_at_first_and_last_position(self):
        codes = alphabet.encode("NACGTN")
        assert np.array_equal(decode_sequence(encode_sequence(codes)), codes)

    def test_adjacent_wildcards(self):
        codes = alphabet.encode("ACNNNNGT")
        assert np.array_equal(decode_sequence(encode_sequence(codes)), codes)


class TestBatchCoding:
    """encode_sequences is encode_sequence per record, byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(alphabet="ACGT", max_size=5),
                st.text(alphabet="ACGT", max_size=120),
                iupac_text,
            ),
            max_size=15,
        ),
        st.integers(min_value=1, max_value=200),
    )
    def test_equals_per_record_coding(self, texts, chunk):
        """Small passes put pass edges between and inside records."""
        sequences = [alphabet.encode(text) for text in texts]
        with patch.object(direct, "CODE_CHUNK", chunk):
            buffer, bounds = encode_sequences(sequences)
        assert bounds.tolist()[0] == 0
        assert len(buffer) == int(bounds[-1])
        for slot, codes in enumerate(sequences):
            piece = buffer[int(bounds[slot]) : int(bounds[slot + 1])]
            assert piece == encode_sequence(codes)

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5])
    def test_short_records_between_wildcard_records(self, length):
        sequences = [
            alphabet.encode("ACNGT"),
            (np.arange(length) % 4).astype(np.uint8),
            alphabet.encode("N"),
        ]
        buffer, bounds = encode_sequences(sequences)
        assert buffer == b"".join(encode_sequence(codes) for codes in sequences)
        assert np.diff(bounds).tolist() == [
            len(encode_sequence(codes)) for codes in sequences
        ]

    def test_rejects_out_of_alphabet_codes(self):
        with pytest.raises(CodecError):
            encode_sequences([alphabet.encode("ACGT"), np.array([50], np.uint8)])

    def test_empty_batch(self):
        buffer, bounds = encode_sequences([])
        assert buffer == b""
        assert bounds.tolist() == [0]
