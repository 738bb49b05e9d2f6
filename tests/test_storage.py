"""Unit tests for the on-disk index format."""

import numpy as np
import pytest

from repro.errors import IndexFormatError
from repro.index.builder import IndexParameters, build_index
from repro.index.statistics import collect_statistics
from repro.index.storage import DiskIndex, read_index, write_index
from repro.sequences.record import Sequence
from tests.conftest import read_postings


@pytest.fixture(scope="module")
def sample_index():
    rng = np.random.default_rng(7)
    records = [
        Sequence(f"s{slot}", rng.integers(0, 4, 200, dtype=np.uint8))
        for slot in range(12)
    ]
    return build_index(records, IndexParameters(interval_length=5))


@pytest.fixture
def index_path(sample_index, tmp_path):
    path = tmp_path / "sample.rpix"
    write_index(sample_index, path)
    return path


class TestRoundTrip:
    def test_bytes_written_match_file(self, sample_index, tmp_path):
        path = tmp_path / "x.rpix"
        written = write_index(sample_index, path)
        assert path.stat().st_size == written

    def test_metadata_preserved(self, sample_index, index_path):
        with read_index(index_path) as disk:
            assert disk.params == sample_index.params
            assert disk.collection.identifiers == sample_index.collection.identifiers
            assert np.array_equal(
                disk.collection.lengths, sample_index.collection.lengths
            )

    def test_every_entry_identical(self, sample_index, index_path):
        with read_index(index_path) as disk:
            assert disk.vocabulary_size == sample_index.vocabulary_size
            for interval in sample_index.interval_ids():
                memory_entry = sample_index.lookup_entry(interval)
                disk_entry = disk.lookup_entry(interval)
                assert disk_entry.df == memory_entry.df
                assert disk_entry.cf == memory_entry.cf
                assert disk_entry.data == memory_entry.data

    def test_postings_decode_identically(self, sample_index, index_path):
        interval = next(iter(sample_index.interval_ids()))
        with read_index(index_path) as disk:
            from_disk = read_postings(disk, interval)
        assert from_disk and read_postings(sample_index, interval) == from_disk

    def test_absent_interval_lookup(self, sample_index, index_path):
        missing = max(sample_index.interval_ids()) + 1
        with read_index(index_path) as disk:
            assert disk.lookup_entry(missing) is None

    def test_aggregate_statistics_match(self, sample_index, index_path):
        with read_index(index_path) as disk:
            assert disk.pointer_count == sample_index.pointer_count
            assert disk.compressed_bytes == sample_index.compressed_bytes
            disk_stats = collect_statistics(disk)
        memory_stats = collect_statistics(sample_index)
        assert disk_stats == memory_stats

    def test_to_memory(self, sample_index, index_path):
        with read_index(index_path) as disk:
            rebuilt = disk.to_memory()
        assert rebuilt.vocabulary_size == sample_index.vocabulary_size
        interval = next(iter(sample_index.interval_ids()))
        assert (
            rebuilt.lookup_entry(interval).data
            == sample_index.lookup_entry(interval).data
        )


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpix"
        path.write_bytes(b"")
        with pytest.raises(IndexFormatError, match="empty"):
            DiskIndex(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpix"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(IndexFormatError, match="magic"):
            DiskIndex(path)

    def test_bad_version(self, index_path):
        data = bytearray(index_path.read_bytes())
        data[4] = 99
        index_path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="version"):
            DiskIndex(index_path)

    def test_truncated_vocabulary(self, index_path):
        data = index_path.read_bytes()
        index_path.write_bytes(data[: len(data) // 4])
        with pytest.raises(IndexFormatError):
            DiskIndex(index_path)

    def test_truncated_blob(self, index_path):
        data = index_path.read_bytes()
        index_path.write_bytes(data[:-10])
        with pytest.raises(IndexFormatError, match="postings blob"):
            DiskIndex(index_path)

    def test_bad_header_json(self, index_path):
        data = bytearray(index_path.read_bytes())
        data[10:14] = b"\xff\xff\xff\xff"
        index_path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            DiskIndex(index_path)


class TestLifecycle:
    def test_close_is_idempotent(self, index_path):
        disk = read_index(index_path)
        disk.close()
        disk.close()

    def test_context_manager_closes(self, index_path):
        with read_index(index_path) as disk:
            assert disk.vocabulary_size > 0
        # After close the map is gone; lookups would fail loudly rather
        # than silently read stale memory.
        assert disk._map is None
