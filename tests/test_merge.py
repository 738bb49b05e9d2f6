"""Unit and property tests for chunked index construction and merging,
in memory and on disk."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexParameterError
from repro.index.builder import IndexParameters, build_index
from repro.index.merge import (
    build_index_chunked,
    merge_index_files,
    merge_indexes,
)
from repro.index.storage import read_index, write_index
from repro.sequences.record import Sequence


def random_records(seed: int, count: int, length: int = 150) -> list[Sequence]:
    rng = np.random.default_rng(seed)
    return [
        Sequence(f"m{seed}_{slot}", rng.integers(0, 4, length, dtype=np.uint8))
        for slot in range(count)
    ]


def assert_identical(first, second) -> None:
    assert first.params == second.params
    assert first.collection.identifiers == second.collection.identifiers
    assert np.array_equal(first.collection.lengths, second.collection.lengths)
    assert first.vocabulary_size == second.vocabulary_size
    for interval in first.interval_ids():
        this = first.lookup_entry(interval)
        that = second.lookup_entry(interval)
        assert that is not None, interval
        assert (this.df, this.cf, this.data) == (that.df, that.cf, that.data)


class TestMerge:
    def test_empty_merge_rejected(self):
        with pytest.raises(IndexParameterError):
            merge_indexes([])

    def test_parameter_mismatch_rejected(self):
        records = random_records(1, 4)
        first = build_index(records, IndexParameters(interval_length=6))
        second = build_index(records, IndexParameters(interval_length=8))
        with pytest.raises(IndexParameterError, match="different parameters"):
            merge_indexes([first, second])

    def test_merge_of_one_is_identity(self):
        records = random_records(2, 5)
        index = build_index(records, IndexParameters(interval_length=6))
        assert_identical(merge_indexes([index]), index)

    def test_two_way_merge_equals_direct_build(self):
        first_half = random_records(3, 7)
        second_half = random_records(4, 5)
        params = IndexParameters(interval_length=7)
        merged = merge_indexes(
            [build_index(first_half, params), build_index(second_half, params)]
        )
        direct = build_index(first_half + second_half, params)
        assert_identical(merged, direct)

    def test_three_way_merge_with_uneven_parts(self):
        parts_records = [random_records(s, n) for s, n in ((5, 3), (6, 9), (7, 1))]
        params = IndexParameters(interval_length=6)
        merged = merge_indexes([build_index(r, params) for r in parts_records])
        direct = build_index(sum(parts_records, []), params)
        assert_identical(merged, direct)

    def test_merge_without_positions(self):
        params = IndexParameters(interval_length=6)
        first = random_records(8, 4)
        second = random_records(9, 4)
        merged = merge_indexes(
            [build_index(first, params), build_index(second, params)]
        )
        direct = build_index(first + second, params)
        assert_identical(merged, direct)


class TestMergeEqualsSingleBuild:
    """Merging per-part indexes must reproduce one build over the
    concatenated collection — posting-for-posting (the property the
    sharded build relies on)."""

    def test_merge_index_files_equals_direct_build(self, tmp_path):
        from repro.index.merge import merge_index_files
        from repro.index.storage import read_index, write_index

        parts_records = [random_records(s, n) for s, n in ((21, 6), (22, 4), (23, 8))]
        params = IndexParameters(interval_length=6)
        paths = []
        for number, part in enumerate(parts_records):
            path = tmp_path / f"part{number}.rpix"
            write_index(build_index(part, params), path)
            paths.append(str(path))
        output = tmp_path / "merged.rpix"
        merge_index_files(paths, str(output))
        direct = build_index(sum(parts_records, []), params)
        with read_index(output) as merged:
            assert_identical(merged, direct)

    def test_merge_indexes_equals_direct_build_many_parts(self):
        parts_records = [random_records(30 + s, 3, length=90) for s in range(5)]
        params = IndexParameters(interval_length=5)
        merged = merge_indexes(
            [build_index(part, params) for part in parts_records]
        )
        direct = build_index(sum(parts_records, []), params)
        assert_identical(merged, direct)


class TestChunkedBuild:
    def test_chunk_size_validation(self):
        with pytest.raises(IndexParameterError):
            build_index_chunked(random_records(1, 3), chunk_size=0)

    def test_empty_collection_rejected(self):
        with pytest.raises(IndexParameterError):
            build_index_chunked([])

    def test_accepts_lazy_iterables(self):
        records = random_records(10, 6)
        index = build_index_chunked(
            iter(records), IndexParameters(interval_length=6), chunk_size=2
        )
        assert index.collection.num_sequences == 6

    @settings(max_examples=15, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=12),
        chunk_size=st.integers(min_value=1, max_value=13),
    )
    def test_chunked_equals_direct_for_any_chunking(self, count, chunk_size):
        records = random_records(11, count, length=60)
        params = IndexParameters(interval_length=5)
        chunked = build_index_chunked(records, params, chunk_size=chunk_size)
        direct = build_index(records, params)
        assert_identical(chunked, direct)

    def test_search_on_merged_index(self):
        from repro.index.store import MemorySequenceSource
        from repro.search.engine import PartitionedSearchEngine

        records = random_records(12, 30, length=200)
        index = build_index_chunked(
            records, IndexParameters(interval_length=8), chunk_size=7
        )
        engine = PartitionedSearchEngine(
            index, MemorySequenceSource(records), coarse_cutoff=10
        )
        query = records[17].codes[40:160]
        assert engine.search(query).best().ordinal == 17


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(131)
    return [
        Sequence(f"la{slot}", rng.integers(0, 4, 250, dtype=np.uint8))
        for slot in range(25)
    ]


class TestDiskMerge:
    def test_merged_file_equals_direct_build(self, records, tmp_path):
        params = IndexParameters(interval_length=7)
        first = tmp_path / "a.rpix"
        second = tmp_path / "b.rpix"
        output = tmp_path / "m.rpix"
        write_index(build_index(records[:10], params), first)
        write_index(build_index(records[10:], params), second)
        written = merge_index_files([str(first), str(second)], str(output))
        assert output.stat().st_size == written
        direct = build_index(records, params)
        with read_index(output) as merged:
            assert merged.vocabulary_size == direct.vocabulary_size
            assert merged.collection.identifiers == (
                direct.collection.identifiers
            )
            for interval in direct.interval_ids():
                ours = merged.lookup_entry(interval)
                theirs = direct.lookup_entry(interval)
                assert (ours.df, ours.cf, ours.data) == (
                    theirs.df, theirs.cf, theirs.data,
                )

    def test_three_way_disk_merge_searchable(self, records, tmp_path):
        from repro.index.store import MemorySequenceSource
        from repro.search.engine import PartitionedSearchEngine

        params = IndexParameters(interval_length=7)
        paths = []
        for slot, chunk in enumerate(
            (records[:8], records[8:16], records[16:])
        ):
            path = tmp_path / f"part{slot}.rpix"
            write_index(build_index(chunk, params), path)
            paths.append(str(path))
        output = tmp_path / "all.rpix"
        merge_index_files(paths, str(output))
        with read_index(output) as merged:
            engine = PartitionedSearchEngine(
                merged, MemorySequenceSource(records), coarse_cutoff=10
            )
            query = records[19].codes[50:200]
            assert engine.search(query).best().ordinal == 19

    def test_empty_path_list_rejected(self, tmp_path):
        with pytest.raises(IndexParameterError):
            merge_index_files([], str(tmp_path / "out.rpix"))

    def test_parameter_mismatch_rejected(self, records, tmp_path):
        first = tmp_path / "a.rpix"
        second = tmp_path / "b.rpix"
        write_index(
            build_index(records[:5], IndexParameters(interval_length=6)), first
        )
        write_index(
            build_index(records[5:], IndexParameters(interval_length=8)), second
        )
        with pytest.raises(IndexParameterError):
            merge_index_files(
                [str(first), str(second)], str(tmp_path / "out.rpix")
            )

    def test_positions_free_disk_merge(self, records, tmp_path):
        """A part written with occurrence offsets merges into lists
        without them: exactly a fresh build's."""
        from repro.database import Database

        old = Path(__file__).parent / "data" / "v2_with_offsets.db"
        with Database.open(old) as db:
            old_records = list(db.records())
        params = IndexParameters(interval_length=8)
        second = tmp_path / "b.rpix"
        write_index(build_index(records[:10], params), second)
        output = tmp_path / "m.rpix"
        merge_index_files(
            [str(old / "intervals.rpix"), str(second)], str(output)
        )
        direct = build_index(old_records + records[:10], params)
        with read_index(output) as merged:
            assert list(merged.interval_ids()) == list(direct.interval_ids())
            for interval in direct.interval_ids():
                assert (
                    merged.lookup_entry(interval).data
                    == direct.lookup_entry(interval).data
                )
