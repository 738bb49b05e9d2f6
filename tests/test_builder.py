"""Unit and property tests for index construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexParameterError
from repro.index.builder import (
    CollectionInfo,
    IndexParameters,
    build_index,
)
from repro.index.intervals import IntervalExtractor, interval_id
from repro.sequences.record import Sequence
from tests.conftest import read_postings


def seq(identifier: str, text: str) -> Sequence:
    return Sequence.from_text(identifier, text)


class TestParameters:
    def test_describe_roundtrip(self):
        params = IndexParameters(6, 2)
        description = params.describe()
        assert IndexParameters.from_description(description) == params
        # The header keeps every key a file with offsets carried, at
        # the one codec's fixed values.
        assert description == {
            "interval_length": 6,
            "stride": 2,
            "doc_codec": "golomb",
            "count_codec": "gamma",
            "position_codec": "golomb",
            "include_positions": False,
        }

    def test_factories(self):
        params = IndexParameters(interval_length=5, stride=3)
        assert params.make_extractor().length == 5
        assert params.make_extractor().stride == 3


class TestCollectionInfo:
    def test_from_sequences(self):
        info = CollectionInfo.from_sequences([seq("a", "ACGT"), seq("b", "AC")])
        assert info.identifiers == ("a", "b")
        assert info.lengths.tolist() == [4, 2]
        assert info.total_length == 6
        assert info.num_sequences == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(IndexParameterError):
            CollectionInfo(("a",), np.array([1, 2], dtype=np.int64))

    def test_context(self):
        info = CollectionInfo.from_sequences([seq("a", "ACGTACGT")])
        context = info.context()
        assert context.num_sequences == 1
        assert context.total_length == 8


class TestBuild:
    def test_empty_collection_rejected(self):
        with pytest.raises(IndexParameterError):
            build_index([])

    def test_every_occurrence_is_indexed(self):
        records = [seq("a", "ACGTACGT"), seq("b", "TTACGTTT")]
        index = build_index(records, IndexParameters(interval_length=4))
        assert read_postings(index, interval_id("ACGT")) == [(0, 2), (1, 1)]

    def test_absent_interval(self):
        index = build_index([seq("a", "AAAA")], IndexParameters(interval_length=4))
        lens, docs, _ = index.read_lists([interval_id("TTTT")])
        assert lens.tolist() == [0] and docs.size == 0
        assert read_postings(index, interval_id("TTTT")) == []
        assert interval_id("AAAA") in index
        assert interval_id("TTTT") not in index

    def test_vocab_entry_statistics(self):
        index = build_index(
            [seq("a", "ACGTACGT"), seq("b", "ACGT")],
            IndexParameters(interval_length=4),
        )
        entry = index.lookup_entry(interval_id("ACGT"))
        assert entry.df == 2
        assert entry.cf == 3

    def test_sequences_without_intervals_are_counted(self):
        # One sequence is too short to produce intervals but must still
        # be part of the collection (ordinals, lengths).
        index = build_index(
            [seq("a", "AC"), seq("b", "ACGTAC")],
            IndexParameters(interval_length=4),
        )
        assert index.collection.num_sequences == 2
        _, docs, _ = index.read_lists([interval_id("ACGT")])
        assert docs.tolist() == [1]

    def test_wildcards_never_reach_vocabulary(self):
        index = build_index(
            [seq("a", "ACGTNACGT")], IndexParameters(interval_length=4)
        )
        for packed in index.interval_ids():
            assert 0 <= packed < 4**4

    def test_stride_reduces_pointer_volume(self):
        records = [seq("a", "ACGT" * 50)]
        overlapping = build_index(records, IndexParameters(interval_length=4))
        skipping = build_index(
            records, IndexParameters(interval_length=4, stride=4)
        )
        assert skipping.pointer_count <= overlapping.pointer_count
        total = sum(e.cf for e in skipping.entries())
        assert total == 50

    def test_interval_ids_sorted(self):
        rng = np.random.default_rng(0)
        records = [
            Sequence("r", rng.integers(0, 4, 500, dtype=np.uint8))
        ]
        index = build_index(records, IndexParameters(interval_length=5))
        ids = list(index.interval_ids())
        assert ids == sorted(ids)

    def test_replace_vocabulary_shares_collection(self):
        index = build_index([seq("a", "ACGTACGT")], IndexParameters(4))
        trimmed = index.replace_vocabulary({})
        assert trimmed.vocabulary_size == 0
        assert trimmed.collection is index.collection


@settings(max_examples=25, deadline=None)
@given(
    texts=st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=80),
                   min_size=1, max_size=8),
    length=st.integers(min_value=1, max_value=6),
)
def test_index_reconstructs_extraction_exactly(texts, length):
    """Decoded postings are exactly the extractor's output, counted per
    sequence."""
    records = [seq(f"s{slot}", text) for slot, text in enumerate(texts)]
    index = build_index(records, IndexParameters(interval_length=length))
    extractor = IntervalExtractor(length)
    expected: dict[int, dict[int, int]] = {}
    for ordinal, record in enumerate(records):
        ids, _ = extractor.extract(record.codes)
        for packed in ids.tolist():
            by_doc = expected.setdefault(packed, {})
            by_doc[ordinal] = by_doc.get(ordinal, 0) + 1
    assert set(index.interval_ids()) == set(expected)
    for packed, by_doc in expected.items():
        assert dict(read_postings(index, packed)) == by_doc


class TestBuildMemory:
    """The build's peak of Python-tracked memory per indexed base.

    tracemalloc counts numpy's buffers, so the figure is deterministic
    for a given corpus.  Extracting, sorting and coding the whole
    collection at once peaked at about 270 B/base on this corpus; one
    interval pass in the narrowest id dtype, the radix sort and passes
    of at most ``ENCODE_CHUNK`` occurrences peak at about 18.
    """

    MAX_BYTES_PER_BASE = 60

    def test_peak_per_base_is_bounded(self, monkeypatch):
        import tracemalloc

        import repro.index.builder as builder_module

        rng = np.random.default_rng(44)
        records = []
        for slot in range(2000):
            codes = rng.integers(0, 4, 250, dtype=np.uint8)
            codes[rng.random(250) < 0.002] = 14  # N
            records.append(Sequence(f"m{slot}", codes))
        # Many passes over the 500k occurrences.
        monkeypatch.setattr(builder_module, "ENCODE_CHUNK", 1 << 14)
        tracemalloc.start()
        try:
            index = build_index(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.vocabulary_size > 60_000
        assert peak / (250 * len(records)) <= self.MAX_BYTES_PER_BASE
