"""Robustness: corrupt on-disk artefacts must fail *cleanly*.

Two complementary layers:

* a **deterministic fault matrix** driven by
  :mod:`repro.instrumentation.faults` — every structural section of
  the index (format v3, each vocabulary column on its own, and the v2
  layout still read) and the v2 store gets truncation, bit-flip, and
  zero-page faults, and each must surface as a typed
  :class:`~repro.errors.CorruptionError` (or, for the pre-checksum
  prefix, an :class:`~repro.errors.IndexFormatError`), never an
  uncaught low-level exception, hang, or silent wrong answer;
* **property-based fuzzing** (hypothesis) that hammers random
  positions as a safety net for anything the matrix misses.

The matrix also pins the degradation policies: with
``on_corruption="skip"`` a damaged posting list or record is
quarantined and search still answers; with ``"fallback"`` the query is
re-answered exhaustively from the store.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.direct import decode_sequence, encode_sequence
from repro.database import Database
from repro.errors import CorruptionError, IndexFormatError, ReproError
from repro.index.builder import IndexParameters, build_index
from repro.index.storage import DiskIndex, write_index
from repro.index.store import SequenceStore, write_store
from repro.instrumentation import faults
from repro.sequences.record import Sequence
from tests.conftest import write_v2_index

#: Exceptions a corrupted artefact is allowed to surface: the library's
#: own taxonomy, plus the bounded set raised by the stdlib parsers the
#: formats delegate to (struct/json/unicode decoding).
ALLOWED = (ReproError, ValueError, KeyError, TypeError, EOFError,
           UnicodeDecodeError, OverflowError, MemoryError)

#: Fault kinds exercised against every file section.
FAULT_KINDS = ("truncate", "flip", "zero")

V2_INDEX_SECTIONS = (
    "prefix", "header_crc", "header", "count", "table_crc", "table", "blob",
)
INDEX_SECTIONS = V2_INDEX_SECTIONS + (
    "interval_id_column", "df_column", "cf_column", "length_column",
    "crc_column",
)
STORE_SECTIONS = (
    "prefix", "header_crc", "header", "count", "tables_crc", "offsets",
    "record_crcs", "payload",
)


def _records(count: int = 8, length: int = 150, seed: int = 141):
    rng = np.random.default_rng(seed)
    return [
        Sequence(f"fz{slot}", rng.integers(0, 4, length, dtype=np.uint8))
        for slot in range(count)
    ]


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    records = _records()
    workdir = tmp_path_factory.mktemp("fuzz")
    index_path = workdir / "x.rpix"
    store_path = workdir / "x.rpsq"
    write_index(build_index(records, IndexParameters(interval_length=6)),
                index_path)
    write_store(records, store_path)
    return index_path.read_bytes(), store_path.read_bytes(), workdir


@pytest.fixture(scope="module")
def v2_index_bytes(tmp_path_factory):
    """The fuzz artefact's index in the v2 layout, which is still read."""
    path = tmp_path_factory.mktemp("fuzz_v2") / "x.rpix"
    write_v2_index(
        build_index(_records(), IndexParameters(interval_length=6)), path
    )
    return path.read_bytes()


def _inject(path, span, kind):
    start, end = span
    if end <= start:
        pytest.skip("section empty in this artefact")
    middle = (start + end) // 2
    if kind == "truncate":
        faults.truncate_at(path, middle)
    elif kind == "flip":
        faults.flip_byte(path, min(middle, end - 1), mask=0x40)
    else:
        faults.zero_page(path, start, min(end - start, faults.PAGE_SIZE))


def _exercise_index(path):
    with DiskIndex(path) as index:
        for interval in index.interval_ids():
            index.read_lists([interval])


def _exercise_store(path):
    with SequenceStore(path) as store:
        for ordinal in range(len(store)):
            store.codes(ordinal)


class TestIndexFaultMatrix:
    """Every section × every fault kind raises a typed error."""

    @pytest.mark.parametrize("section", INDEX_SECTIONS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_is_caught_as_typed_error(
        self, artefacts, tmp_path, section, kind
    ):
        index_bytes, _, _ = artefacts
        path = tmp_path / "hurt.rpix"
        path.write_bytes(index_bytes)
        span = faults.index_sections(path)[section]
        _inject(path, span, kind)
        expected = IndexFormatError if section == "prefix" else CorruptionError
        with pytest.raises(expected):
            _exercise_index(path)

    def test_pristine_control_passes(self, artefacts, tmp_path):
        index_bytes, _, _ = artefacts
        path = tmp_path / "fine.rpix"
        path.write_bytes(index_bytes)
        _exercise_index(path)
        with DiskIndex(path) as index:
            assert index.verify() == []


class TestV2IndexFaultMatrix:
    """The v2 read branch is a corruption surface of its own: every v2
    section × every fault kind raises a typed error too."""

    @pytest.mark.parametrize("section", V2_INDEX_SECTIONS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_is_caught_as_typed_error(
        self, v2_index_bytes, tmp_path, section, kind
    ):
        path = tmp_path / "hurt.rpix"
        path.write_bytes(v2_index_bytes)
        span = faults.index_sections(path)[section]
        _inject(path, span, kind)
        expected = IndexFormatError if section == "prefix" else CorruptionError
        with pytest.raises(expected):
            _exercise_index(path)

    def test_pristine_control_passes(self, v2_index_bytes, tmp_path):
        path = tmp_path / "fine.rpix"
        path.write_bytes(v2_index_bytes)
        assert "df_column" not in faults.index_sections(path)
        _exercise_index(path)
        with DiskIndex(path) as index:
            assert index.verify() == []


class TestStoreFaultMatrix:
    @pytest.mark.parametrize("section", STORE_SECTIONS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_is_caught_as_typed_error(
        self, artefacts, tmp_path, section, kind
    ):
        _, store_bytes, _ = artefacts
        path = tmp_path / "hurt.rpsq"
        path.write_bytes(store_bytes)
        span = faults.store_sections(path)[section]
        _inject(path, span, kind)
        expected = IndexFormatError if section == "prefix" else CorruptionError
        with pytest.raises(expected):
            _exercise_store(path)

    def test_pristine_control_passes(self, artefacts, tmp_path):
        _, store_bytes, _ = artefacts
        path = tmp_path / "fine.rpsq"
        path.write_bytes(store_bytes)
        _exercise_store(path)
        with SequenceStore(path) as store:
            assert store.verify() == []


@pytest.fixture()
def planted_db(tmp_path):
    """A database with two near-identical records and a query for them."""
    rng = np.random.default_rng(99)
    records = _records(10, 200, seed=7)
    shared = rng.integers(0, 4, 200, dtype=np.uint8)
    records[2] = Sequence("twin_a", shared.copy())
    records[5] = Sequence("twin_b", shared.copy())
    path = tmp_path / "planted.db"
    Database.create(
        records, path, params=IndexParameters(interval_length=6)
    ).close()
    query = Sequence("q", shared[20:120].copy())
    return path, query


class TestManifestFaults:
    def test_tampered_digest_detected(self, planted_db):
        path, _ = planted_db
        manifest = path / "manifest.json"
        text = manifest.read_text()
        import json

        loaded = json.loads(text)
        digest = loaded["checksums"]["intervals.rpix"]
        flipped = ("0" if digest[0] != "0" else "f") + digest[1:]
        manifest.write_text(text.replace(digest, flipped))
        report = Database.verify(path)
        assert not report.ok
        assert any("digest" in issue for issue in report.issues)
        with pytest.raises(CorruptionError):
            Database.open(path, verify="full")

    def test_truncated_manifest_rejected(self, planted_db):
        path, _ = planted_db
        manifest = path / "manifest.json"
        faults.truncate_at(manifest, manifest.stat().st_size // 2)
        with pytest.raises(IndexFormatError):
            Database.open(path)
        assert not Database.verify(path).ok

    def test_stale_file_behind_valid_manifest_detected(self, planted_db):
        """A file swapped after the manifest was written fails the digest."""
        path, _ = planted_db
        span = faults.index_sections(path / "intervals.rpix")["blob"]
        faults.flip_byte(path / "intervals.rpix", span[0], mask=0x20)
        report = Database.verify(path)
        assert not report.ok


class TestCorruptionPolicies:
    def _zero_blob(self, path):
        span = faults.index_sections(path / "intervals.rpix")["blob"]
        faults.zero_page(path / "intervals.rpix", span[0], span[1] - span[0])

    def test_raise_policy_propagates(self, planted_db):
        path, query = planted_db
        self._zero_blob(path)
        with Database.open(path) as db:
            with pytest.raises(CorruptionError):
                db.search(query)

    def test_skip_policy_quarantines_and_answers(self, planted_db):
        path, query = planted_db
        self._zero_blob(path)
        with Database.open(path, on_corruption="skip") as db:
            report = db.search(query)
        # Every posting list the query touched was quarantined; the
        # search still returns a (possibly empty) well-formed report.
        assert report.quarantined_intervals > 0
        assert report.hits == []

    def test_fallback_policy_answers_exhaustively(self, planted_db):
        path, query = planted_db
        self._zero_blob(path)
        with Database.open(path, on_corruption="fallback") as db:
            report = db.search(query)
        assert report.degraded
        found = {hit.identifier for hit in report.hits}
        assert {"twin_a", "twin_b"} <= found

    def test_skip_policy_quarantines_corrupt_record(self, planted_db):
        path, query = planted_db
        # Damage twin_a's record payload (ordinal 2) only.
        store_path = path / "sequences.rpsq"
        with SequenceStore(store_path) as pristine:
            start = pristine._payload_start + int(pristine._offsets[2])
        faults.flip_byte(store_path, start + 2, mask=0x10)
        with Database.open(path, on_corruption="skip") as db:
            report = db.search(query)
        assert report.quarantined_sequences >= 1
        found = {hit.identifier for hit in report.hits}
        assert "twin_b" in found
        assert "twin_a" not in found

    def test_unreadable_index_degrades_database(self, planted_db):
        path, query = planted_db
        span = faults.index_sections(path / "intervals.rpix")["header"]
        faults.zero_page(path / "intervals.rpix", span[0], span[1] - span[0])
        with pytest.raises(CorruptionError):
            Database.open(path)
        with Database.open(path, on_corruption="fallback") as db:
            assert db.degraded
            assert "DEGRADED" in db.describe()
            report = db.search(query)
            assert report.degraded
            found = {hit.identifier for hit in report.hits}
            assert {"twin_a", "twin_b"} <= found


class TestIndexCorruption:
    @given(
        position=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_byte_flip_never_crashes_unexpectedly(
        self, artefacts, position, flip
    ):
        index_bytes, _, workdir = artefacts
        data = bytearray(index_bytes)
        data[position % len(data)] ^= flip
        path = workdir / "flip.rpix"
        path.write_bytes(bytes(data))
        try:
            with DiskIndex(path) as index:
                for interval in list(index.interval_ids())[:20]:
                    index.read_lists([interval])
        except ALLOWED:
            pass

    @given(
        position=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_byte_flip_never_answers_wrong(
        self, artefacts, position, flip
    ):
        """Every byte of a v3 file is under a checksum or refused by a
        check, so a flipped byte either raises a typed error — at open
        or on reading the lists — or changes no answer."""
        index_bytes, _, workdir = artefacts
        with DiskIndex(workdir / "x.rpix") as pristine:
            ids = list(pristine.interval_ids())
            want = pristine.read_lists(ids)
        data = bytearray(index_bytes)
        data[position % len(data)] ^= flip
        path = workdir / "flip_v3.rpix"
        path.write_bytes(bytes(data))
        try:
            with DiskIndex(path) as index:
                got = index.read_lists(ids)
        except (CorruptionError, IndexFormatError):
            return
        for got_field, want_field in zip(got, want):
            assert np.array_equal(got_field, want_field)

    @given(cut=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_every_truncation_is_refused_at_open(self, artefacts, cut):
        """The lengths must fill the blob exactly, so a v3 file cut
        anywhere does not open."""
        index_bytes, _, workdir = artefacts
        path = workdir / "cut_v3.rpix"
        path.write_bytes(index_bytes[: cut % len(index_bytes)])
        with pytest.raises(IndexFormatError):
            DiskIndex(path)

    @given(cut=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_crashes_unexpectedly(self, artefacts, cut):
        index_bytes, _, workdir = artefacts
        path = workdir / "cut.rpix"
        path.write_bytes(index_bytes[: cut % len(index_bytes)])
        try:
            with DiskIndex(path) as index:
                list(index.interval_ids())
        except ALLOWED:
            pass


class TestStoreCorruption:
    @given(
        position=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_byte_flip_never_crashes_unexpectedly(
        self, artefacts, position, flip
    ):
        _, store_bytes, workdir = artefacts
        data = bytearray(store_bytes)
        data[position % len(data)] ^= flip
        path = workdir / "flip.rpsq"
        path.write_bytes(bytes(data))
        try:
            with SequenceStore(path) as store:
                for ordinal in range(len(store)):
                    store.codes(ordinal)
        except ALLOWED:
            pass


class TestDirectCodingCorruption:
    @given(
        payload=st.binary(min_size=1, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_crash_unexpectedly(self, payload):
        try:
            decode_sequence(payload)
        except ALLOWED:
            pass

    @given(
        text=st.text(alphabet="ACGTN", min_size=1, max_size=60),
        position=st.integers(min_value=0, max_value=10**4),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=100, deadline=None)
    def test_flipped_payload_never_crashes_unexpectedly(
        self, text, position, flip
    ):
        from repro.sequences import alphabet

        payload = bytearray(encode_sequence(alphabet.encode(text)))
        payload[position % len(payload)] ^= flip
        try:
            decode_sequence(bytes(payload))
        except ALLOWED:
            pass
