"""Unit tests for the on-disk index format."""

import json
import struct
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, IndexFormatError
from repro.index import storage
from repro.index.builder import (
    IndexParameters,
    InvertedIndex,
    ResolvedLists,
    build_index,
)
from repro.index.statistics import collect_statistics
from repro.index.storage import DiskIndex, read_index, write_index
from repro.instrumentation import faults
from repro.instrumentation.instruments import Instruments
from repro.sequences.fasta import read_fasta
from repro.sequences.record import Sequence
from tests.conftest import read_postings, scalar_read_lists, write_v2_index

GOLDEN = Path(__file__).parent / "data" / "build_golden"


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


def _columns(path):
    """A v3 file's column dtype names, from its header."""
    start, end = faults.index_sections(path)["header"]
    return json.loads(path.read_bytes()[start:end])["columns"]


def _rewrite_header(path, edit):
    """Re-write ``path`` with ``edit`` applied to its header JSON (the
    header checksum recomputed, everything else kept)."""
    raw = path.read_bytes()
    start, end = faults.index_sections(path)["header"]
    header = json.loads(raw[start:end])
    edit(header)
    body = json.dumps(header).encode("utf-8")
    path.write_bytes(
        raw[:6]
        + struct.pack("<II", len(body), zlib.crc32(body))
        + body
        + raw[end:]
    )


class TestColumnWidths:
    """Each v3 vocabulary column takes the narrowest unsigned dtype that
    holds its values, and nothing else is stored per row."""

    def test_golden_corpus_rows_are_nine_bytes(self, tmp_path):
        records = list(read_fasta(GOLDEN / "records.fasta"))
        index = build_index(records)
        path = tmp_path / "golden.rpix"
        write_index(index, path)
        start, end = faults.index_sections(path)["table"]
        assert end - start == 9 * index.vocabulary_size
        assert _columns(path) == {
            "interval_id": "u2", "df": "u1", "cf": "u1", "length": "u1",
            "crc": "u4",
        }

    def test_empty_vocabulary_opens(self, tmp_path):
        empty = build_index(
            [Sequence("short", np.zeros(3, dtype=np.uint8))],
            IndexParameters(interval_length=5),
        )
        path = tmp_path / "empty.rpix"
        write_index(empty, path)
        sections = faults.index_sections(path)
        assert sections["table"][0] == sections["table"][1]
        assert sections["blob"][0] == sections["blob"][1]
        with DiskIndex(path) as disk:
            assert disk.vocabulary_size == 0
            assert disk.collection.lengths.tolist() == [3]
            assert disk.read_lists([0, 7])[0].tolist() == [0, 0]
            assert disk.verify() == []

    def test_k12_writes_u4_ids(self, tmp_path):
        rng = np.random.default_rng(12)
        records = [
            Sequence(f"r{slot}", rng.integers(0, 4, 300, dtype=np.uint8))
            for slot in range(6)
        ]
        index = build_index(records, IndexParameters(interval_length=12))
        path = tmp_path / "k12.rpix"
        write_index(index, path)
        assert _columns(path)["interval_id"] == "u4"
        with DiskIndex(path) as disk:
            ids = list(index.interval_ids())
            assert list(disk.interval_ids()) == ids
            for got, want in zip(
                disk.read_lists(ids), scalar_read_lists(index, ids)
            ):
                assert np.array_equal(got, want)

    def test_large_values_widen_their_column(self, tmp_path):
        """A 2 000-base run makes one list of ~2 000 occurrences, longer
        than 255 bytes: cf and length widen to u2 and still round-trip."""
        records = [
            Sequence("run", np.zeros(2000, dtype=np.uint8)),
            Sequence("mixed", np.tile(np.arange(4, dtype=np.uint8), 50)),
        ]
        index = build_index(records, IndexParameters(interval_length=5))
        path = tmp_path / "wide.rpix"
        write_index(index, path)
        widths = _columns(path)
        assert widths["cf"] == "u2" and widths["df"] == "u1"
        with DiskIndex(path) as disk:
            for interval in index.interval_ids():
                assert disk.lookup_entry(interval) == index.lookup_entry(
                    interval
                )

    @pytest.mark.parametrize(
        "columns",
        [None, {"df": "u1"}, {"interval_id": "f8", "df": "u1", "cf": "u1",
                              "length": "u1", "crc": "u4"}],
        ids=["missing", "partial", "float"],
    )
    def test_bad_column_dtypes_refused(self, index_path, columns):
        def edit(header):
            header["columns"] = columns

        _rewrite_header(index_path, edit)
        with pytest.raises(IndexFormatError, match="malformed header"):
            DiskIndex(index_path)

    def test_trailing_blob_bytes_refused(self, index_path):
        index_path.write_bytes(index_path.read_bytes() + b"\x00")
        with pytest.raises(CorruptionError, match="postings blob"):
            DiskIndex(index_path)

    def test_v2_lists_out_of_id_order_refused(self, sample_index, tmp_path):
        """A v2 row's offset is only read to check that the lists lie
        back to back in id order; a file laid out otherwise is
        refused, not read at rebuilt offsets."""
        lists = sample_index.lists
        reordered = ResolvedLists(
            lists.interval_ids,
            lists.dfs,
            lists.cfs,
            lists.buffer.shape[0] - lists.offsets - lists.lengths,
            lists.lengths,
            np.concatenate(
                [
                    lists.buffer[start : start + length]
                    for start, length in zip(
                        lists.offsets.tolist()[::-1], lists.lengths.tolist()[::-1]
                    )
                ]
            ),
        )
        path = tmp_path / "reversed.rpix"
        write_v2_index(
            InvertedIndex(sample_index.params, sample_index.collection, reordered),
            path,
        )
        with pytest.raises(IndexFormatError, match="back to back"):
            DiskIndex(path)


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


@pytest.fixture(scope="module")
def disk_layouts(sample_index, tmp_path_factory):
    """The sample index on disk in both formats read, plus an index with
    an empty vocabulary, each opened once."""
    root = tmp_path_factory.mktemp("resolve")
    write_v2_index(sample_index, root / "v2.rpix")
    write_index(sample_index, root / "v3.rpix")
    empty = build_index(
        [Sequence("short", np.zeros(3, dtype=np.uint8))],
        IndexParameters(interval_length=5),
    )
    write_index(empty, root / "empty.rpix")
    indexes = {
        name: DiskIndex(root / f"{name}.rpix")
        for name in ("v2", "v3", "empty")
    }
    yield indexes
    for index in indexes.values():
        index.close()


class TestResolveMatchesScalarLookup:
    """``read_lists`` resolves a whole id batch at once and block-decodes
    it; whatever the batch holds, it must equal looking each id up on
    its own and decoding it with the scalar per-list codec."""

    @pytest.mark.parametrize("layout", ["v2", "v3", "empty"])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_read_lists_equals_per_id_lookup(
        self, disk_layouts, sample_index, layout, data
    ):
        index = disk_layouts[layout]
        present = sorted(sample_index.interval_ids())
        low, high = present[0], present[-1]
        one_id = st.one_of(
            st.sampled_from(present),
            st.integers(low - 3, high + 3),
            st.sampled_from([low - 1, high + 1]),
        )
        # Every batch repeats half its ids in reverse: duplicated and
        # unsorted requests are the rule, not a rare draw.
        ids = data.draw(
            st.lists(one_id, max_size=30).map(lambda ids: ids + ids[::-2])
        )
        got = index.read_lists(ids)
        want = scalar_read_lists(index, ids)
        assert len(got) == len(want)
        for got_field, want_field in zip(got, want):
            assert np.array_equal(got_field, want_field)


@pytest.fixture
def damaged_index(sample_index, tmp_path):
    """An index with one posting blob damaged: ``(path, bad id,
    request)`` where the request holds the bad id between healthy
    neighbours."""
    path = tmp_path / "damaged.rpix"
    write_index(sample_index, path)
    ids = sorted(sample_index.interval_ids())
    slot = len(ids) // 2
    blob_start, _ = faults.index_sections(path)["blob"]
    offset = sum(
        len(sample_index.lookup_entry(interval).data)
        for interval in ids[:slot]
    )
    faults.flip_byte(path, blob_start + offset)
    return path, ids[slot], ids[slot - 2 : slot + 3]


class TestBlobDamageSemantics:
    def test_raises_with_the_damaged_id(self, damaged_index):
        path, bad, request = damaged_index
        with DiskIndex(path) as index:
            with pytest.raises(CorruptionError) as excinfo:
                index.read_lists(request)
            assert excinfo.value.interval_id == bad
            assert excinfo.value.section == "blob"

    def test_skip_quarantines_exactly_the_damaged_list(
        self, damaged_index, sample_index
    ):
        path, bad, request = damaged_index
        healthy = [interval for interval in request if interval != bad]
        with DiskIndex(path) as index:
            instruments = Instruments()
            index.set_instruments(instruments)
            skip: set[int] = set()
            for _ in range(2):  # the second read skips the quarantined id
                got = index.read_lists(request, skip=skip)
                want = sample_index.read_lists(healthy)
                assert skip == {bad}
                assert got[0][request.index(bad)] == 0
                assert np.array_equal(
                    np.delete(got[0], request.index(bad)), want[0]
                )
                for got_field, want_field in zip(got[1:], want[1:]):
                    assert np.array_equal(got_field, want_field)
            assert instruments.metrics.counter_value(
                "index.quarantined_intervals"
            ) == 1

    def test_skipped_id_is_never_checked_again(
        self, damaged_index, monkeypatch
    ):
        path, bad, request = damaged_index
        with DiskIndex(path) as index:
            skip: set[int] = set()
            index.read_lists(request, skip=skip)
            assert skip == {bad}
            checked = []
            monkeypatch.setattr(
                storage,
                "zlib",
                SimpleNamespace(
                    crc32=lambda data: checked.append(len(data))
                    or zlib.crc32(data)
                ),
            )
            lens = index.read_lists(request, skip=skip)[0]
            assert lens[request.index(bad)] == 0
            assert index.read_lists([bad], skip=skip)[0].tolist() == [0]
            # Healthy lists were verified on first touch; the damaged
            # one is skipped: no checksum is computed again.
            assert checked == []
            assert skip == {bad}

