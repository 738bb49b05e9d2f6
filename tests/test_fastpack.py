"""Property tests: vectorised code packing is bit-identical to the
scalar writer, across codes, groups, and whole index builds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitio import BitWriter
from repro.compression.elias import EliasGammaCodec
from repro.compression.fastpack import (
    MAX_VECTOR_BITS,
    gamma_code_array,
    golomb_code_array,
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
        patterns, lengths, overflow = golomb_code_array(
            np.array(values), parameter
        )
        if bool(overflow.any()):
            return  # overflowed codes are the scalar path's job
        assert pack_patterns(patterns, lengths) == scalar_golomb(
            values, parameter
        )

    def test_overflow_flagged_for_huge_quotients(self):
        _, lengths, overflow = golomb_code_array(np.array([10**6]), 1)
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
        g_patterns, g_lengths, _ = golomb_code_array(second, 4)
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
