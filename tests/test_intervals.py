"""Unit and property tests for interval (k-mer) extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexParameterError
from repro.index.intervals import (
    MAX_INTERVAL_LENGTH,
    IntervalExtractor,
    interval_id,
)
from repro.sequences import alphabet

base_text = st.text(alphabet="ACGT", min_size=0, max_size=200)


class TestPacking:
    def test_known_ids(self):
        assert interval_id("A") == 0
        assert interval_id("T") == 3
        assert interval_id("AA") == 0
        assert interval_id("AC") == 1
        assert interval_id("TT") == 15
        assert interval_id("CA") == 4

    def test_lowercase_accepted(self):
        assert interval_id("acg") == interval_id("ACG")

    def test_rejects_wildcards(self):
        with pytest.raises(IndexParameterError):
            interval_id("ACN")

    def test_rejects_empty_and_too_long(self):
        with pytest.raises(IndexParameterError):
            interval_id("")
        with pytest.raises(IndexParameterError):
            interval_id("A" * (MAX_INTERVAL_LENGTH + 1))


class TestExtractorValidation:
    def test_length_bounds(self):
        with pytest.raises(IndexParameterError):
            IntervalExtractor(0)
        with pytest.raises(IndexParameterError):
            IntervalExtractor(MAX_INTERVAL_LENGTH + 1)

    def test_stride_bounds(self):
        with pytest.raises(IndexParameterError):
            IntervalExtractor(4, stride=0)

    def test_vocabulary_limit(self):
        assert IntervalExtractor(8).vocabulary_limit == 4**8


class TestExtraction:
    def test_overlapping_positions(self):
        codes = alphabet.encode("ACGTAC")
        ids, positions = IntervalExtractor(4).extract(codes)
        assert positions.tolist() == [0, 1, 2]
        assert ids.tolist() == [
            interval_id("ACGT"),
            interval_id("CGTA"),
            interval_id("GTAC"),
        ]

    def test_non_overlapping_stride(self):
        codes = alphabet.encode("ACGTACGTAC")
        ids, positions = IntervalExtractor(4, stride=4).extract(codes)
        assert positions.tolist() == [0, 4]
        assert ids.tolist() == [interval_id("ACGT")] * 2

    def test_stride_two(self):
        codes = alphabet.encode("ACGTACG")
        _, positions = IntervalExtractor(3, stride=2).extract(codes)
        assert positions.tolist() == [0, 2, 4]

    def test_short_sequence_yields_nothing(self):
        ids, positions = IntervalExtractor(8).extract(alphabet.encode("ACGT"))
        assert ids.shape == (0,)
        assert positions.shape == (0,)

    def test_wildcard_windows_skipped(self):
        codes = alphabet.encode("ACGTNACGT")
        ids, positions = IntervalExtractor(4).extract(codes)
        assert positions.tolist() == [0, 5]
        assert ids.tolist() == [interval_id("ACGT")] * 2

    def test_all_wildcards_yields_nothing(self):
        ids, _ = IntervalExtractor(2).extract(alphabet.encode("NNNN"))
        assert ids.shape == (0,)

    def test_extract_distinct_sorted_unique(self):
        codes = alphabet.encode("AAAAA")
        distinct = IntervalExtractor(2).extract_distinct(codes)
        assert distinct.tolist() == [0]

    @given(base_text, st.integers(min_value=1, max_value=8))
    def test_ids_match_reference_packing(self, text, length):
        codes = alphabet.encode(text)
        ids, positions = IntervalExtractor(length).extract(codes)
        expected_count = max(0, len(text) - length + 1)
        assert ids.shape[0] == expected_count
        for packed, position in zip(ids, positions):
            window = text[int(position) : int(position) + length]
            assert interval_id(window) == int(packed)

    @given(base_text, st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    def test_stride_is_subset_of_overlapping(self, text, length, stride):
        codes = alphabet.encode(text)
        all_ids, all_positions = IntervalExtractor(length).extract(codes)
        sub_ids, sub_positions = IntervalExtractor(length, stride).extract(codes)
        full = dict(zip(all_positions.tolist(), all_ids.tolist()))
        for packed, position in zip(sub_ids, sub_positions):
            assert position % stride == 0
            assert full[int(position)] == int(packed)


class TestCollectionExtraction:
    """One pass over the joined collection equals per-record extract."""

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.text(alphabet="ACGTACGTACGTNRY", max_size=40), max_size=12
        ),
        length=st.sampled_from([4, 8, 12]),
        stride_kind=st.sampled_from(["one", "two", "length"]),
    )
    def test_equals_concatenated_per_record_extract(
        self, texts, length, stride_kind
    ):
        stride = {"one": 1, "two": 2, "length": length}[stride_kind]
        extractor = IntervalExtractor(length, stride)
        sequences = [alphabet.encode(text) for text in texts]
        ids, ordinals = extractor.extract_collection(sequences)
        expected_ids, expected_ordinals = [], []
        for ordinal, codes in enumerate(sequences):
            record_ids, _ = extractor.extract(codes)
            expected_ids += record_ids.tolist()
            expected_ordinals += [ordinal] * record_ids.shape[0]
        assert ids.dtype == extractor.id_dtype
        assert ids.tolist() == expected_ids
        assert ordinals.tolist() == expected_ordinals

    def test_id_dtype_is_the_narrowest_unsigned(self):
        assert IntervalExtractor(8).id_dtype == np.uint16
        assert IntervalExtractor(9).id_dtype == np.uint32
        assert IntervalExtractor(MAX_INTERVAL_LENGTH).id_dtype == np.uint32

    def test_widest_ids_fit(self):
        codes = alphabet.encode("T" * MAX_INTERVAL_LENGTH)
        ids, ordinals = IntervalExtractor(
            MAX_INTERVAL_LENGTH
        ).extract_collection([codes])
        assert ids.tolist() == [4**MAX_INTERVAL_LENGTH - 1]
        assert ordinals.tolist() == [0]

    def test_empty_and_short_records(self):
        extractor = IntervalExtractor(4)
        sequences = [alphabet.encode(text) for text in ("", "ACG", "ACGT", "")]
        ids, ordinals = extractor.extract_collection(sequences)
        assert ids.tolist() == [interval_id("ACGT")]
        assert ordinals.tolist() == [2]
        ids, ordinals = extractor.extract_collection([])
        assert ids.shape == ordinals.shape == (0,)
