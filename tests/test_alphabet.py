"""Unit tests for the nucleotide alphabet."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlphabetError
from repro.sequences import alphabet

iupac_text = st.text(alphabet=alphabet.IUPAC_ALPHABET, max_size=200)


class TestEncodeDecode:
    def test_bases_encode_to_expected_codes(self):
        assert alphabet.encode("ACGT").tolist() == [0, 1, 2, 3]

    def test_lowercase_is_accepted(self):
        assert alphabet.encode("acgt").tolist() == [0, 1, 2, 3]

    def test_wildcards_encode_above_base_range(self):
        codes = alphabet.encode("NRYK")
        assert (codes >= alphabet.WILDCARD_MIN_CODE).all()

    def test_empty_string(self):
        assert alphabet.encode("").shape == (0,)
        assert alphabet.decode(np.empty(0, dtype=np.uint8)) == ""

    def test_invalid_character_raises_with_position(self):
        with pytest.raises(AlphabetError, match="position 2"):
            alphabet.encode("ACXT")

    def test_decode_rejects_out_of_range_code(self):
        with pytest.raises(AlphabetError):
            alphabet.decode(np.array([99], dtype=np.uint8))

    def test_bytes_input(self):
        assert alphabet.encode(b"ACGT").tolist() == [0, 1, 2, 3]

    @given(iupac_text)
    def test_roundtrip(self, text):
        assert alphabet.decode(alphabet.encode(text)) == text.upper()


class TestComplement:
    def test_base_complement(self):
        assert alphabet.decode(alphabet.complement(alphabet.encode("ACGT"))) == "TGCA"

    def test_reverse_complement(self):
        codes = alphabet.encode("AACGT")
        assert alphabet.decode(alphabet.reverse_complement(codes)) == "ACGTT"

    @given(iupac_text)
    def test_complement_is_involution(self, text):
        codes = alphabet.encode(text)
        assert np.array_equal(alphabet.complement(alphabet.complement(codes)), codes)

    @given(iupac_text)
    def test_reverse_complement_is_involution(self, text):
        codes = alphabet.encode(text)
        twice = alphabet.reverse_complement(alphabet.reverse_complement(codes))
        assert np.array_equal(twice, codes)

    def test_wildcard_complements_follow_iupac(self):
        # R (AG) complements to Y (CT).
        assert alphabet.decode(alphabet.complement(alphabet.encode("R"))) == "Y"


class TestPredicates:
    def test_is_wildcard_mask(self):
        mask = alphabet.is_wildcard(alphabet.encode("ANCG"))
        assert mask.tolist() == [False, True, False, False]

    def test_expansions_cover_every_character(self):
        assert set(alphabet.IUPAC_EXPANSIONS) == set(alphabet.IUPAC_ALPHABET)

    def test_expansions_are_consistent_with_complement(self):
        # complement(expansion(x)) == expansion(complement(x))
        base_complement = {"A": "T", "C": "G", "G": "C", "T": "A"}
        for char, expansion in alphabet.IUPAC_EXPANSIONS.items():
            complemented = {base_complement[base] for base in expansion}
            partner = alphabet.IUPAC_COMPLEMENTS[char]
            assert complemented == set(alphabet.IUPAC_EXPANSIONS[partner])
