"""Verification, repair, crash safety, and format-version checks."""

import json
import os
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.database import Database
from repro.errors import (
    CorruptionError,
    IndexFormatError,
    SearchError,
)
from repro.index.builder import IndexParameters
from repro.index.storage import DiskIndex
from repro.index.store import SequenceStore
from repro.instrumentation import faults
from repro.sequences.record import Sequence

PARAMS = IndexParameters(interval_length=6)


def _records(count=10, length=200, seed=31):
    rng = np.random.default_rng(seed)
    return [
        Sequence(f"vr{slot}", rng.integers(0, 4, length, dtype=np.uint8))
        for slot in range(count)
    ]


@pytest.fixture()
def db_path(tmp_path):
    records = _records()
    path = tmp_path / "col.db"
    Database.create(records, path, params=PARAMS).close()
    return path, records


class TestVerify:
    def test_fresh_database_is_ok(self, db_path):
        path, _ = db_path
        report = Database.verify(path)
        assert report.ok
        assert report.issues == []

    def test_corruption_is_reported_not_raised(self, db_path):
        path, _ = db_path
        span = faults.index_sections(path / "intervals.rpix")["table"]
        faults.flip_byte(path / "intervals.rpix", span[0], mask=0x08)
        report = Database.verify(path)
        assert not report.ok
        assert report.issues

    def test_verify_collects_problems_from_both_files(self, db_path):
        path, _ = db_path
        for name, key in (
            ("intervals.rpix", faults.index_sections),
            ("sequences.rpsq", faults.store_sections),
        ):
            span = key(path / name)["header"]
            faults.flip_byte(path / name, span[0] + 1, mask=0x04)
        report = Database.verify(path)
        assert len(report.issues) >= 2

    def test_cli_verify_exit_codes(self, db_path, capsys):
        path, _ = db_path
        assert main(["verify", str(path)]) == 0
        assert "intact" in capsys.readouterr().out
        span = faults.store_sections(path / "sequences.rpsq")["payload"]
        faults.zero_page(path / "sequences.rpsq", span[0], span[1] - span[0])
        assert main(["verify", str(path)]) == 1
        assert "PROBLEM" in capsys.readouterr().out


class TestRepair:
    def _damage_index(self, path):
        span = faults.index_sections(path / "intervals.rpix")["table"]
        faults.zero_page(path / "intervals.rpix", span[0], span[1] - span[0])

    def test_repair_restores_searchable_database(self, db_path):
        path, records = db_path
        query = Sequence("q", records[3].codes[10:110].copy())
        with Database.open(path) as db:
            baseline = [hit.identifier for hit in db.search(query).hits]
        self._damage_index(path)
        with pytest.raises(CorruptionError):
            Database.open(path)
        with Database.repair(path) as repaired:
            report = repaired.search(query)
        assert [hit.identifier for hit in report.hits] == baseline
        assert Database.verify(path).ok

    def test_repair_refuses_damaged_store(self, db_path):
        path, _ = db_path
        span = faults.store_sections(path / "sequences.rpsq")["payload"]
        faults.flip_byte(path / "sequences.rpsq", span[0], mask=0x02)
        with pytest.raises(CorruptionError):
            Database.repair(path)

    def test_cli_repair(self, db_path, capsys):
        path, _ = db_path
        self._damage_index(path)
        assert main(["repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rebuilt index" in out
        assert main(["verify", str(path)]) == 0

    def test_cli_repair_skips_intact_database(self, db_path, capsys):
        path, _ = db_path
        assert main(["repair", str(path)]) == 0
        assert "already intact" in capsys.readouterr().out


class TestCrashSafety:
    """An interrupted create never leaves an openable half-database."""

    def test_crash_at_every_fsync_point(self, tmp_path):
        records = _records(6, 120)
        for point in range(10):
            path = tmp_path / f"crash{point}.db"
            crashed = False
            try:
                with faults.crash_on_fsync(after=point):
                    Database.create(records, path, params=PARAMS).close()
            except faults.SimulatedCrash:
                crashed = True
            if crashed:
                # The directory must be either unopenable (no manifest
                # landed) or fully valid (the crash hit after the final
                # atomic manifest publish) — never a half-written state
                # that opens but fails verification.
                try:
                    Database.open(path).close()
                except (IndexFormatError, FileNotFoundError):
                    pass
                else:
                    assert Database.verify(path).ok
            else:
                assert Database.verify(path).ok
                # No later fsync point exists; stop scanning.
                break
        else:
            pytest.fail("create never completed within 10 fsync points")

    def test_create_recovers_after_crash(self, tmp_path):
        records = _records(6, 120)
        path = tmp_path / "retry.db"
        with pytest.raises(faults.SimulatedCrash):
            with faults.crash_on_fsync(after=0):
                Database.create(records, path, params=PARAMS)
        Database.create(records, path, params=PARAMS).close()
        assert Database.verify(path).ok

    def test_crash_during_replace_leaves_no_temp_files(self, tmp_path):
        records = _records(6, 120)
        path = tmp_path / "torn.db"
        with pytest.raises(faults.SimulatedCrash):
            with faults.crash_during_replace():
                Database.create(records, path, params=PARAMS)
        with pytest.raises((IndexFormatError, FileNotFoundError)):
            Database.open(path).close()
        if path.exists():
            leftovers = [n for n in os.listdir(path) if n.endswith(".tmp")]
            assert leftovers == []


def test_format_v1_files_are_refused(tmp_path, db_path):
    """Only format v2 is read: a v1 index, store and manifest are each
    refused outright (rebuild from FASTA), never opened unchecked."""
    # v1 files are hand-written: prefix, header JSON, and an empty
    # table, with none of v2's checksums.
    index_header = json.dumps(
        {"params": PARAMS.describe(), "identifiers": [], "lengths": []}
    ).encode()
    index_path = tmp_path / "old.rpix"
    index_path.write_bytes(
        struct.pack("<4sHI", b"RPIX", 1, len(index_header))
        + index_header
        + struct.pack("<Q", 0)
    )
    with pytest.raises(IndexFormatError, match="unsupported version 1"):
        DiskIndex(index_path)

    store_header = json.dumps(
        {"coding": "raw", "identifiers": [], "descriptions": []}
    ).encode()
    store_path = tmp_path / "old.rpsq"
    store_path.write_bytes(
        struct.pack("<4sHI", b"RPSQ", 1, len(store_header))
        + store_header
        + struct.pack("<QQ", 0, 0)
    )
    with pytest.raises(IndexFormatError, match="unsupported version 1"):
        SequenceStore(store_path)

    path, _ = db_path
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 1
    del manifest["checksums"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexFormatError, match="unsupported database version 1"):
        Database.open(path)
    assert not Database.verify(path).ok


def _build_layout(path, layout, records):
    """One database per layout of the verify/repair matrix."""
    shards = {"classic": 1, "sharded": 3, "live": 1, "live-sharded": 2}
    live = layout.startswith("live")
    database = Database.create(
        records[:12] if live else records,
        path,
        params=PARAMS,
        shards=shards[layout],
    )
    if live:
        database.add_records(records[12:])
        database.delete([1, 13])
    database.close()


class TestLayoutMatrix:
    """Verify and repair behave alike on every layout: the damaged
    directory is named, and repair restores identical answers without
    changing the layout's generation rule or on-disk spelling."""

    @pytest.mark.parametrize(
        "layout, damaged",
        [
            ("classic", ""),
            ("sharded", "shard-0001"),
            ("live", ""),
            ("live-sharded", "shard-0000"),
        ],
    )
    def test_damage_verify_repair(self, tmp_path, layout, damaged):
        from tests.conftest import parity_report_key

        records = _records(16)
        path = tmp_path / "db"
        _build_layout(path, layout, records)
        query = Sequence("q", records[4].codes[20:140].copy())
        with Database.open(path) as db:
            baseline = parity_report_key(db.search(query, coarse_cutoff=10))
            generation = db.generation
            tombstones = db.tombstone_count
        target = path / damaged / "intervals.rpix"
        span = faults.index_sections(target)["table"]
        faults.zero_page(target, span[0], span[1] - span[0])
        report = Database.verify(path)
        assert not report.ok
        assert any(str(target) in issue for issue in report.issues)

        with Database.repair(path) as repaired:
            assert parity_report_key(
                repaired.search(query, coarse_cutoff=10)
            ) == baseline
            assert repaired.tombstone_count == tombstones
            assert repaired.generation == (
                generation + 1 if layout.startswith("live") else 0
            )
        manifest = json.loads((path / "manifest.json").read_text())
        assert ("lsm" in manifest) == layout.startswith("live")
        assert ("shards" in manifest) == (layout == "sharded")
        assert ("checksums" in manifest) == (layout == "classic")
        assert Database.verify(path).ok


@pytest.mark.parametrize(
    "layout, entry",
    [
        ("classic", ()),
        ("sharded", ("shards", "layout", 1)),
        ("live", ("lsm", "base", "layout", 0)),
        ("live", ("lsm", "deltas", "layout", 0)),
    ],
    ids=["classic", "shard", "lsm-base", "lsm-delta"],
)
def test_entry_without_digests_is_refused(tmp_path, layout, entry):
    """Stripping an entry's ``checksums`` must not switch the digest
    audit off: open refuses the database and verify reports it."""
    path = tmp_path / "db"
    _build_layout(path, layout, _records(16))
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    description = manifest
    for key in entry:
        description = description[key]
    del description["checksums"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexFormatError, match="records no file digests"):
        Database.open(path)
    report = Database.verify(path)
    assert not report.ok
    assert any("records no file digests" in issue for issue in report.issues)


@pytest.mark.parametrize("layout", ["classic", "sharded", "live"])
def test_sequence_count_checked_on_every_layout(tmp_path, layout):
    """A manifest promising more records than the store holds is
    refused at open and reported by verify, whatever the layout."""
    path = tmp_path / "db"
    _build_layout(path, layout, _records(16))
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if layout == "live":
        manifest["lsm"]["deltas"]["layout"][-1]["sequences"] = 99
    elif layout == "sharded":
        manifest["shards"]["layout"][-1]["sequences"] = 99
    else:
        manifest["sequences"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexFormatError, match="promises 99 sequences"):
        Database.open(path)
    report = Database.verify(path)
    assert not report.ok
    assert any("99" in issue for issue in report.issues)


class TestDegradedOpen:
    def test_engine_scans_when_degraded(self, db_path):
        """A degraded database hands out engines: their shard has no
        index, so every query scans every live sequence."""
        path, records = db_path
        span = faults.index_sections(path / "intervals.rpix")["header_crc"]
        faults.flip_byte(path / "intervals.rpix", span[0], mask=0x80)
        with Database.open(path, on_corruption="fallback") as db:
            assert db.degraded
            engine = db.engine()
            assert engine.degraded
            report = engine.search(records[3].slice(10, 90), top_k=3)
            assert report.degraded
            assert report.candidates_examined == len(records)
            assert report.best().ordinal == 3
            with pytest.raises(SearchError):
                engine.coarse_rank(records[3].codes)
