"""Property tests: vectorised code packing is bit-identical to the
scalar writer, across codes, groups, and whole index builds."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitio import BitWriter
from repro.compression.elias import EliasGammaCodec
from repro.compression.fastpack import (
    MAX_VECTOR_BITS,
    gamma_code_array,
    golomb_code_array_multi,
    interleave_codes,
    pack_grouped,
    pack_patterns,
)
from repro.compression.golomb import GolombCodec
from repro.errors import CodecValueError


def scalar_gamma(values) -> bytes:
    writer = BitWriter()
    codec = EliasGammaCodec()
    for value in values:
        codec.encode_value(writer, int(value))
    return writer.getvalue()


def scalar_golomb(values, parameter) -> bytes:
    writer = BitWriter()
    codec = GolombCodec(parameter)
    for value in values:
        codec.encode_value(writer, int(value))
    return writer.getvalue()


class TestGammaVector:
    @given(st.lists(st.integers(min_value=0, max_value=2**28 - 1),
                    min_size=1, max_size=200))
    def test_bit_identical_to_scalar(self, values):
        patterns, lengths = gamma_code_array(np.array(values))
        assert pack_patterns(patterns, lengths) == scalar_gamma(values)

    def test_rejects_negative(self):
        with pytest.raises(CodecValueError):
            gamma_code_array(np.array([-1]))

    def test_rejects_oversized(self):
        with pytest.raises(CodecValueError):
            gamma_code_array(np.array([2**28]))

    def test_boundary_value_fits_the_window(self):
        patterns, lengths = gamma_code_array(np.array([2**28 - 1]))
        assert int(lengths[0]) == 57
        assert pack_patterns(patterns, lengths) == scalar_gamma([2**28 - 1])

    def test_empty(self):
        patterns, lengths = gamma_code_array(np.empty(0, dtype=np.int64))
        assert pack_patterns(patterns, lengths) == b""


class TestGolombVector:
    @given(
        values=st.lists(st.integers(min_value=0, max_value=5000), min_size=1,
                        max_size=200),
        parameter=st.integers(min_value=1, max_value=300),
    )
    def test_bit_identical_to_scalar(self, values, parameter):
        patterns, lengths, overflow = golomb_code_array_multi(
            np.array(values), parameter
        )
        if bool(overflow.any()):
            return  # overflowed codes are the scalar path's job
        assert pack_patterns(patterns, lengths) == scalar_golomb(
            values, parameter
        )

    def test_overflow_flagged_for_huge_quotients(self):
        _, lengths, overflow = golomb_code_array_multi(np.array([10**6]), 1)
        assert bool(overflow[0])
        assert int(lengths[0]) > MAX_VECTOR_BITS

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2000),
                st.integers(min_value=1, max_value=200),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_multi_parameter_matches_per_value_scalar(self, pairs):
        values = np.array([value for value, _ in pairs])
        parameters = np.array([parameter for _, parameter in pairs])
        patterns, lengths, overflow = golomb_code_array_multi(
            values, parameters
        )
        if bool(overflow.any()):
            return
        writer = BitWriter()
        for value, parameter in pairs:
            GolombCodec(parameter).encode_value(writer, value)
        assert pack_patterns(patterns, lengths) == writer.getvalue()

    def test_multi_shape_mismatch(self):
        with pytest.raises(CodecValueError):
            golomb_code_array_multi(np.array([1, 2]), np.array([3]))


class TestInterleaveAndGroups:
    def test_interleave_matches_alternating_scalar(self):
        first = np.array([5, 6, 7])
        second = np.array([0, 1, 2])
        gamma_patterns, gamma_lengths = gamma_code_array(first)
        golomb = GolombCodec(4)
        g_patterns, g_lengths, _ = golomb_code_array_multi(second, 4)
        patterns, lengths = interleave_codes(
            (gamma_patterns, gamma_lengths), (g_patterns, g_lengths)
        )
        writer = BitWriter()
        gamma = EliasGammaCodec()
        for a, b in zip(first.tolist(), second.tolist()):
            gamma.encode_value(writer, a)
            golomb.encode_value(writer, b)
        assert pack_patterns(patterns, lengths) == writer.getvalue()

    @given(
        groups=st.lists(
            st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                     max_size=20),
            min_size=1,
            max_size=15,
        )
    )
    def test_grouped_packing_slices_equal_separate_encodings(self, groups):
        values = np.concatenate([np.array(group) for group in groups])
        group_ids = np.concatenate(
            [np.full(len(group), slot) for slot, group in enumerate(groups)]
        )
        patterns, lengths = gamma_code_array(values)
        buffer, bounds = pack_grouped(patterns, lengths, group_ids)
        for slot, group in enumerate(groups):
            piece = buffer[int(bounds[slot]) : int(bounds[slot + 1])]
            assert piece == scalar_gamma(group)

    @given(
        codes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=MAX_VECTOR_BITS),
                st.integers(min_value=0, max_value=2**MAX_VECTOR_BITS - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_word_packing_of_any_widths_equals_scalar(self, codes):
        """Codes up to the full window, so they start anywhere in a
        word and spill into the next; a true flag starts a new group."""
        lengths = np.array([length for length, _, _ in codes])
        patterns = np.array(
            [value & ((1 << length) - 1) for length, value, _ in codes],
            dtype=np.uint64,
        )
        group_ids = np.cumsum([new for _, _, new in codes])
        buffer, bounds = pack_grouped(patterns, lengths, group_ids)
        expected, writer = [], BitWriter()
        for slot, pattern in enumerate(patterns.tolist()):
            if slot and group_ids[slot] != group_ids[slot - 1]:
                expected.append(writer.getvalue())
                writer = BitWriter()
            writer.write_bits(pattern, int(lengths[slot]))
        expected.append(writer.getvalue())
        assert np.diff(bounds).tolist() == [len(piece) for piece in expected]
        assert buffer == b"".join(expected)

    def test_group_ids_must_be_sorted(self):
        patterns, lengths = gamma_code_array(np.array([1, 2]))
        with pytest.raises(CodecValueError):
            pack_grouped(patterns, lengths, np.array([1, 0]))

    def test_pack_patterns_rejects_wide_codes(self):
        with pytest.raises(CodecValueError):
            pack_patterns(
                np.array([1], dtype=np.uint64),
                np.array([MAX_VECTOR_BITS + 1]),
            )


class TestBulkBuildEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=60),
                       min_size=1, max_size=10),
        interval_length=st.integers(min_value=1, max_value=6),
    )
    def test_bulk_equals_loop_for_any_collection(self, texts, interval_length):
        import repro.index.builder as builder_module
        from repro.index.builder import IndexParameters, build_index
        from repro.sequences.record import Sequence

        records = [
            Sequence.from_text(f"h{slot}", text)
            for slot, text in enumerate(texts)
        ]
        params = IndexParameters(interval_length=interval_length)
        fast = build_index(records, params)
        original = builder_module._bulk_encode_vocabulary
        builder_module._bulk_encode_vocabulary = lambda *args, **kw: None
        try:
            slow = build_index(records, params)
        finally:
            builder_module._bulk_encode_vocabulary = original
        assert fast.vocabulary_size == slow.vocabulary_size
        for interval in fast.interval_ids():
            ours = fast.lookup_entry(interval)
            theirs = slow.lookup_entry(interval)
            assert (ours.df, ours.cf, ours.data) == (
                theirs.df, theirs.cf, theirs.data,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="ACGTN", max_size=60),
                       min_size=1, max_size=10),
        interval_length=st.sampled_from([1, 2, 3, 5, 12]),
        chunk=st.integers(min_value=1, max_value=12),
    )
    def test_chunked_passes_equal_the_loop(self, texts, interval_length, chunk):
        """Small passes put interval boundaries on, before and after
        every pass edge, and intervals longer than a pass."""
        import repro.index.builder as builder_module
        from repro.index.builder import CollectionInfo
        from repro.index.intervals import IntervalExtractor
        from repro.index.postings import PostingsCodec
        from repro.sequences.record import Sequence

        records = [
            Sequence.from_text(f"h{slot}", text)
            for slot, text in enumerate(texts)
        ]
        ids, docs = IntervalExtractor(interval_length).extract_collection(
            [record.codes for record in records]
        )
        if not ids.shape[0]:
            return
        order = builder_module._stable_order(ids)
        ids, docs = ids[order], docs[order]
        codec = PostingsCodec()
        context = CollectionInfo.from_sequences(records).context()
        with patch.object(builder_module, "ENCODE_CHUNK", chunk):
            lists = builder_module._bulk_encode_vocabulary(
                ids, docs, codec, context
            )
        expected = builder_module._loop_encode_vocabulary(
            ids, docs, codec, context
        )
        assert lists.interval_ids.tolist() == sorted(expected)
        assert lists.offsets.tolist() == (
            np.cumsum(lists.lengths) - lists.lengths
        ).tolist()
        assert lists.buffer.shape[0] == int(lists.lengths.sum())
        for slot, interval in enumerate(lists.interval_ids.tolist()):
            ours, theirs = lists.entry(slot), expected[interval]
            assert (ours.df, ours.cf, ours.data) == (
                theirs.df, theirs.cf, theirs.data,
            )


class TestStableOrder:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=300),
        st.sampled_from([np.uint16, np.uint32]),
    )
    def test_radix_passes_equal_a_stable_sort(self, values, dtype):
        from repro.index.builder import _stable_order

        ids = np.array(values, dtype=np.uint64).astype(dtype)
        expected = np.argsort(ids.astype(np.int64), kind="stable")
        assert _stable_order(ids).tolist() == expected.tolist()
