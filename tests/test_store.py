"""Unit tests for sequence stores (raw and direct coded)."""

import numpy as np
import pytest

from repro.compression.direct import encode_sequence
from repro.errors import IndexFormatError, IndexLookupError
from repro.index.store import (
    MemorySequenceSource,
    SequenceStore,
    read_store,
    write_store,
)
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(21)
    made = [
        Sequence(f"s{slot}", rng.integers(0, 4, int(length), dtype=np.uint8),
                 description=f"demo {slot}")
        for slot, length in enumerate(rng.integers(5, 400, size=10))
    ]
    # One record with wildcards exercises the direct-coding side list.
    made.append(Sequence.from_text("wild", "ACGTNNRYACGT"))
    return made


class TestMemorySource:
    def test_basic_access(self, records):
        source = MemorySequenceSource(records)
        assert len(source) == len(records)
        assert source.identifier(3) == "s3"
        assert np.array_equal(source.codes(3), records[3].codes)
        assert source.record(3) is records[3]

    def test_out_of_range(self, records):
        source = MemorySequenceSource(records)
        with pytest.raises(IndexLookupError):
            source.codes(len(records))
        with pytest.raises(IndexLookupError):
            source.identifier(-1)


@pytest.mark.parametrize("coding", ["raw", "direct"])
class TestDiskStore:
    def test_roundtrip_every_record(self, records, tmp_path, coding):
        path = tmp_path / f"store_{coding}.rpsq"
        written = write_store(records, path, coding=coding)
        assert path.stat().st_size == written
        with read_store(path) as store:
            assert len(store) == len(records)
            for ordinal, record in enumerate(records):
                assert store.identifier(ordinal) == record.identifier
                assert np.array_equal(store.codes(ordinal), record.codes)
                assert store.record(ordinal) == record

    def test_random_access_is_order_independent(self, records, tmp_path, coding):
        path = tmp_path / f"ra_{coding}.rpsq"
        write_store(records, path, coding=coding)
        with read_store(path) as store:
            for ordinal in (7, 0, 10, 3, 10):
                assert np.array_equal(store.codes(ordinal), records[ordinal].codes)

    def test_payloads_are_the_per_record_coding(
        self, records, tmp_path, coding
    ):
        path = tmp_path / f"payload_{coding}.rpsq"
        stored = records + [Sequence("empty", np.empty(0, dtype=np.uint8))]
        write_store(stored, path, coding=coding)
        with read_store(path) as store:
            for ordinal, record in enumerate(stored):
                expected = (
                    encode_sequence(record.codes) if coding == "direct"
                    else record.codes.tobytes()
                )
                assert store._payload(ordinal) == expected

    def test_out_of_range(self, records, tmp_path, coding):
        path = tmp_path / f"oob_{coding}.rpsq"
        write_store(records, path, coding=coding)
        with read_store(path) as store:
            with pytest.raises(IndexLookupError):
                store.codes(len(records))


class TestCodingChoice:
    def test_direct_is_smaller_than_raw(self, records, tmp_path):
        raw_path = tmp_path / "a.rpsq"
        direct_path = tmp_path / "b.rpsq"
        write_store(records, raw_path, coding="raw")
        write_store(records, direct_path, coding="direct")
        with read_store(raw_path) as raw, read_store(direct_path) as direct:
            assert direct.payload_bytes < raw.payload_bytes / 3

    def test_unknown_coding_rejected(self, records, tmp_path):
        with pytest.raises(IndexFormatError):
            write_store(records, tmp_path / "x.rpsq", coding="zip")


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpsq"
        path.write_bytes(b"")
        with pytest.raises(IndexFormatError, match="empty"):
            SequenceStore(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpsq"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(IndexFormatError, match="magic"):
            SequenceStore(path)

    def test_truncated_payload(self, records, tmp_path):
        path = tmp_path / "trunc.rpsq"
        write_store(records, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(IndexFormatError, match="truncated"):
            SequenceStore(path)

    def test_close_idempotent(self, records, tmp_path):
        path = tmp_path / "c.rpsq"
        write_store(records, path)
        store = read_store(path)
        store.close()
        store.close()
