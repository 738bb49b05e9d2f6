"""Incremental layer: delta shards, tombstones, compaction, crash safety.

Two invariants carry this file:

* **differential parity** — a database grown through ingest/delete must
  return hit-for-hit identical reports to a fresh build of the same
  logical collection (the ``parity_worlds`` fixture, plus a Hypothesis
  interleaving test against an in-memory oracle);
* **crash atomicity** — a mutation or compaction killed at any injected
  fault point is invisible on reopen: the previous generation serves
  identical answers and ``verify`` stays clean (orphan directories are
  notes, never issues).
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import parity_report_key
from repro.align.pairwise import local_align
from repro.align.scoring import ScoringScheme
from repro.align.statistics import calibrate_gapped
from repro.database import Database
from repro.errors import (
    CorruptionError,
    IndexFormatError,
    IndexParameterError,
    SearchError,
)
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation import faults
from repro.instrumentation.instruments import Instruments
from repro.search.coarse import SCORERS
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence
from repro.sharding.manifest import orphan_directories, read_layout

PARAMS = IndexParameters(interval_length=6)


def _records(count=24, length=200, seed=29, prefix="rec"):
    rng = np.random.default_rng(seed)
    records = []
    for slot in range(count):
        codes = rng.integers(0, 4, length, dtype=np.uint8)
        if slot % 3 == 0 and slot:
            codes[20:80] = records[0].codes[20:80]
        records.append(Sequence(f"{prefix}{slot:03d}", codes))
    return records


def _query(record, start=30, length=100, name="q"):
    return Sequence(name, record.codes[start : start + length].copy())


def _grown_db(path, records, base=14, splits=(14, 19)):
    """Base + two deltas + tombstones over ``records``; returns doomed."""
    database = Database.create(
        records[:base], path, params=PARAMS, shards=2
    )
    database.add_records(records[splits[0] : splits[1]])
    database.add_records(records[splits[1] :])
    doomed = list(range(2, len(records), 5))
    database.delete(doomed)
    database.close()
    return doomed


def _oracle_engine(records, coarse_cutoff=10):
    return PartitionedSearchEngine(
        build_index(records, PARAMS),
        MemorySequenceSource(records),
        coarse_cutoff=coarse_cutoff,
    )


class TestDifferentialParity:
    """The shared three-layout fixture, across every coarse scorer."""

    def test_default_engine(self, parity_worlds):
        parity_worlds.check()

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_coarse_scorers(self, parity_worlds, scorer):
        parity_worlds.check(coarse_scorer=scorer)

    def test_both_strands_with_evalues(self, parity_worlds):
        reports = parity_worlds.check(both_strands=True, with_evalues=True)
        assert any(
            hit.evalue is not None
            for report in reports
            for hit in report.hits
        )

    def test_live_layout_counts(self, parity_worlds):
        live = parity_worlds.live
        assert live.generation == 3
        assert live.delta_shards == 2
        assert live.tombstone_count == len(parity_worlds.doomed)
        assert len(live) == len(parity_worlds.survivors)
        assert live.stored_sequences == len(parity_worlds.survivors) + len(
            parity_worlds.doomed
        )

    def test_live_record_routing(self, parity_worlds):
        live = parity_worlds.live
        expected = [record.identifier for record in parity_worlds.survivors]
        assert [record.identifier for record in live.records()] == expected
        for ordinal in (0, 11, len(expected) - 1):
            assert live.record(ordinal).identifier == expected[ordinal]


class TestLiveManifest:
    def test_manifest_shape(self, tmp_path):
        records = _records()
        _grown_db(tmp_path / "db", records)
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert "shards" not in manifest
        live = manifest["lsm"]
        assert live["generation"] == 3
        assert [entry["name"] for entry in live["base"]["layout"]] == [
            "shard-0000", "shard-0001",
        ]
        assert [entry["name"] for entry in live["deltas"]["layout"]] == [
            "delta-g000001", "delta-g000002",
        ]
        assert live["tombstones"] == sorted(live["tombstones"])

    def test_round_trip(self, tmp_path):
        records = _records()
        doomed = _grown_db(tmp_path / "db", records)
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        state = read_layout(manifest)
        assert state.generation == 3
        assert state.stored_sequences == len(records)
        assert state.live_sequences == len(records) - len(doomed)
        assert list(state.tombstones) == doomed

    def test_classic_manifest_has_no_lsm_section(self, tmp_path):
        Database.create(_records(6), tmp_path / "db", params=PARAMS).close()
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert "lsm" not in manifest
        state = read_layout(manifest)
        assert state.generation == 0
        assert [entry.name for entry in state.entries] == [""]
        assert state.tombstones == ()
        with Database.open(tmp_path / "db") as database:
            assert database.generation == 0
            assert database.delta_shards == 0
            assert database.tombstone_count == 0

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda m: m["lsm"].__setitem__("generation", -1), "generation"),
            (
                lambda m: m["lsm"]["deltas"]["layout"][0].__setitem__(
                    "base", 99
                ),
                "contiguous",
            ),
            (
                lambda m: m["lsm"].__setitem__(
                    "tombstones", [10_000]
                ),
                "tombstone",
            ),
            pytest.param(
                lambda m: m["lsm"].__setitem__("tombstones", [2, 1]),
                "sorted and unique",
                id="unsorted-tombstones",
            ),
            pytest.param(
                lambda m: m["lsm"].__setitem__("tombstones", [1, 1]),
                "sorted and unique",
                id="duplicate-tombstones",
            ),
            (lambda m: m["lsm"].__setitem__("base", {"count": 0, "layout": []}),
             "base"),
        ],
    )
    def test_malformed_lsm_section_rejected(self, tmp_path, tamper, message):
        _grown_db(tmp_path / "db", _records())
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        tamper(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError, match=message):
            Database.open(tmp_path / "db")


class TestIngestDelete:
    def test_ingest_builds_complete_delta(self, tmp_path):
        records = _records(16)
        database = Database.create(
            records[:12], tmp_path / "db", params=PARAMS, shards=2
        )
        generation = database.add_records(records[12:])
        assert generation == 1
        assert len(database) == 16
        assert database.record(14).identifier == records[14].identifier
        database.close()
        # The delta is an openable database of its own.
        with Database.open(tmp_path / "db" / "delta-g000001") as delta:
            assert len(delta) == 4
        assert Database.verify(tmp_path / "db").ok

    def test_empty_ingest_rejected(self, tmp_path):
        database = Database.create(
            _records(4), tmp_path / "db", params=PARAMS
        )
        with pytest.raises(IndexParameterError):
            database.add_records([])
        database.close()

    def test_delete_shifts_logical_ordinals(self, tmp_path):
        records = _records(10)
        database = Database.create(
            records, tmp_path / "db", params=PARAMS, shards=2
        )
        database.delete([records[3].identifier, 7])
        expected = [
            record.identifier
            for index, record in enumerate(records)
            if index not in (3, 7)
        ]
        assert [r.identifier for r in database.records()] == expected
        assert len(database) == 8
        # total_bases excludes the dead records' bases.
        assert database.total_bases == sum(
            len(record)
            for index, record in enumerate(records)
            if index not in (3, 7)
        )
        database.close()

    def test_delete_bad_targets_rejected(self, tmp_path):
        records = _records(6)
        database = Database.create(records, tmp_path / "db", params=PARAMS)
        with pytest.raises(SearchError, match="no live record"):
            database.delete(["nonexistent"])
        with pytest.raises(SearchError):
            database.delete([99])
        database.delete([records[2].identifier])
        # The identifier no longer matches any *live* record.
        with pytest.raises(SearchError, match="no live record"):
            database.delete([records[2].identifier])
        database.close()

    def test_instruments_cover_mutations(self, tmp_path):
        records = _records(12)
        database = Database.create(
            records[:8], tmp_path / "db", params=PARAMS, shards=2
        )
        instruments = Instruments()
        database.set_instruments(instruments)
        database.add_records(records[8:])
        database.delete([1])
        database.compact()
        snapshot = instruments.metrics.snapshot()
        assert snapshot["counters"]["lsm.records_added"] == 4
        assert snapshot["counters"]["lsm.records_deleted"] == 1
        assert snapshot["counters"]["lsm.compactions"] == 1
        assert snapshot["gauges"]["lsm.generation"] == 3
        assert snapshot["gauges"]["lsm.delta_shards"] == 0
        assert snapshot["gauges"]["lsm.tombstones"] == 0
        span_names = {row["name"] for row in instruments.tracer.flat()}
        assert {"lsm.append", "lsm.delete", "lsm.compact"} <= span_names
        database.close()


class TestCompaction:
    def test_compact_to_one_shard_equals_fresh_create(self, tmp_path):
        records = _records(15)
        database = Database.create(
            records[:10], tmp_path / "db", params=PARAMS
        )
        database.add_records(records[10:13])
        database.add_records(records[13:])
        generation = database.compact(shards=1)
        assert generation == 3
        assert database.num_shards == 1
        assert database.delta_shards == 0
        # Fresh shard directory; the superseded top-level pair is gone.
        compacted = tmp_path / "db" / "shard-g000003-0000"
        assert compacted.is_dir()
        assert not (tmp_path / "db" / "intervals.rpix").exists()
        assert not (tmp_path / "db" / "delta-g000001").exists()
        oracle = _oracle_engine(records)
        query = _query(records[12])
        assert parity_report_key(
            database.search(query, coarse_cutoff=10)
        ) == parity_report_key(oracle.search(query))
        database.close()
        assert Database.verify(tmp_path / "db").ok
        Database.create(records, tmp_path / "fresh", params=PARAMS).close()
        for name in ("intervals.rpix", "sequences.rpsq"):
            assert (compacted / name).read_bytes() == (
                tmp_path / "fresh" / name
            ).read_bytes()

    def test_general_path_with_tombstones(self, tmp_path):
        records = _records(24)
        doomed = _grown_db(tmp_path / "db", records)
        with Database.open(tmp_path / "db") as database:
            generation = database.compact(shards=3, workers=2)
            assert generation == 4
            assert database.num_shards == 3
            assert database.tombstone_count == 0
            survivors = [
                record
                for index, record in enumerate(records)
                if index not in set(doomed)
            ]
            assert len(database) == len(survivors)
            oracle = _oracle_engine(survivors)
            query = _query(records[13])
            assert parity_report_key(
                database.search(query, coarse_cutoff=10)
            ) == parity_report_key(oracle.search(query))
        report = Database.verify(tmp_path / "db")
        assert report.ok
        assert not report.issues

    def test_compact_is_noop_when_nothing_pending(self, tmp_path):
        records = _records(8)
        database = Database.create(
            records, tmp_path / "db", params=PARAMS, shards=2
        )
        assert database.compact() == 0
        assert database.generation == 0
        database.close()

    def test_compact_to_empty_collection_rejected(self, tmp_path):
        records = _records(4)
        database = Database.create(records, tmp_path / "db", params=PARAMS)
        database.delete(list(range(4)))
        assert len(database) == 0
        with pytest.raises(IndexParameterError, match="empty"):
            database.compact()
        database.close()


class _Mutations:
    """The crash-matrix operations: run one, and predict its outcome.

    ``apply`` performs the mutation against the on-disk database;
    ``predict`` returns the logical collection the mutation produces
    from the current ``survivors`` list, so the test can check that an
    interrupted run left *exactly* the pre-state or *exactly* the
    post-state — never anything in between.
    """

    @staticmethod
    def ingest(path, survivors, fresh, apply):
        if apply:
            with Database.open(path) as database:
                database.add_records(fresh)
        return survivors + fresh

    @staticmethod
    def delete(path, survivors, fresh, apply):
        if apply:
            with Database.open(path) as database:
                database.delete([1])
        return survivors[:1] + survivors[2:]

    @staticmethod
    def compact(path, survivors, fresh, apply):
        if apply:
            with Database.open(path) as database:
                database.compact(shards=1)
        return list(survivors)


_FAULTS = [
    pytest.param(lambda: faults.crash_on_fsync(after=0), id="fsync0"),
    pytest.param(lambda: faults.crash_on_fsync(after=1), id="fsync1"),
    pytest.param(lambda: faults.crash_on_fsync(after=2), id="fsync2"),
    pytest.param(faults.crash_during_replace, id="torn-rename"),
]


class TestCrashMatrix:
    """Any mutation killed at any fault point is invisible on reopen."""

    def _baseline(self, tmp_path):
        records = _records(18)
        path = tmp_path / "db"
        database = Database.create(
            records[:12], path, params=PARAMS, shards=2
        )
        database.add_records(records[12:15])
        database.delete([5])
        survivors = [record.identifier for record in database.records()]
        generation = database.generation
        query = _query(records[8])
        baseline = parity_report_key(database.search(query, coarse_cutoff=10))
        database.close()
        return path, records, survivors, generation, query, baseline

    @pytest.mark.parametrize("fault", _FAULTS)
    @pytest.mark.parametrize("operation", ["ingest", "delete", "compact"])
    def test_interrupted_mutation_is_atomic(self, tmp_path, operation, fault):
        path, records, survivors, generation, query, baseline = \
            self._baseline(tmp_path)
        fresh = _records(3, seed=91, prefix="new")
        mutation = getattr(_Mutations, operation)
        post = mutation(path, survivors, [r.identifier for r in fresh], False)
        crashed = False
        try:
            with fault():
                mutation(path, survivors, fresh, True)
        except faults.SimulatedCrash:
            crashed = True
        report = Database.verify(path)
        assert report.ok, report.issues
        with Database.open(path) as database:
            identifiers = [r.identifier for r in database.records()]
            if database.generation == generation:
                # Crashed before the commit point: old state, untouched.
                assert crashed
                assert identifiers == survivors
                assert parity_report_key(
                    database.search(query, coarse_cutoff=10)
                ) == baseline
            else:
                # Committed (the crash, if any, hit after the manifest
                # replace): new state, complete.
                assert database.generation == generation + 1
                assert identifiers == post

    def test_first_fsync_always_crashes(self, tmp_path):
        path, _, survivors, *_ = self._baseline(tmp_path)
        with pytest.raises(faults.SimulatedCrash):
            with faults.crash_on_fsync(after=0):
                _Mutations.compact(path, survivors, [], True)

    def test_torn_compaction_then_truncation(self, tmp_path):
        """A torn compaction plus a torn orphan file: still only notes."""
        path, records, survivors, generation, query, baseline = \
            self._baseline(tmp_path)
        with pytest.raises(faults.SimulatedCrash):
            with faults.crash_during_replace():
                _Mutations.compact(path, survivors, [], True)
        manifest = json.loads((path / "manifest.json").read_text())
        state = read_layout(manifest)
        orphans = orphan_directories(path, state)
        assert orphans, "torn compaction should leave an orphan directory"
        for artefact in sorted(orphans[0].glob("*")):
            if artefact.is_file():
                faults.truncate_at(artefact, artefact.stat().st_size // 2)
                break
        report = Database.verify(path)
        assert report.ok, report.issues
        assert any(orphans[0].name in note for note in report.notes)
        with Database.open(path) as database:
            assert database.generation == generation
            assert parity_report_key(
                database.search(query, coarse_cutoff=10)
            ) == baseline
            # Recovery converges: the orphan name is reused or removed.
            database.compact(shards=1)
            assert database.generation == generation + 1
        report = Database.verify(path)
        assert report.ok
        assert not any("orphan" in note for note in report.notes)


class TestVerifyRepair:
    def test_verify_recurses_into_delta_shards(self, tmp_path):
        records = _records(16)
        _grown_db(tmp_path / "db", records, base=10, splits=(10, 13))
        target = tmp_path / "db" / "delta-g000001" / "intervals.rpix"
        span = faults.index_sections(target)["table"]
        faults.flip_byte(target, span[0], mask=0x08)
        report = Database.verify(tmp_path / "db")
        assert not report.ok
        assert any("delta-g000001" in issue for issue in report.issues)

    def test_verify_notes_unreferenced_directories(self, tmp_path):
        records = _records(12)
        _grown_db(tmp_path / "db", records, base=8, splits=(8, 10))
        stray = tmp_path / "db" / "delta-g000099"
        stray.mkdir()
        (stray / "junk").write_bytes(b"half-written")
        report = Database.verify(tmp_path / "db")
        assert report.ok
        assert any("delta-g000099" in note for note in report.notes)

    def test_repair_rebuilds_delta_and_keeps_tombstones(self, tmp_path):
        records = _records(16)
        doomed = _grown_db(tmp_path / "db", records, base=10, splits=(10, 13))
        query = _query(records[11])
        with Database.open(tmp_path / "db") as database:
            baseline = parity_report_key(
                database.search(query, coarse_cutoff=10)
            )
            tombstones = database.tombstone_count
        target = tmp_path / "db" / "delta-g000001" / "intervals.rpix"
        span = faults.index_sections(target)["table"]
        faults.zero_page(target, span[0], span[1] - span[0])
        with pytest.raises(CorruptionError):
            Database.open(tmp_path / "db")
        with Database.repair(tmp_path / "db") as repaired:
            assert repaired.tombstone_count == tombstones == len(doomed)
            assert parity_report_key(
                repaired.search(query, coarse_cutoff=10)
            ) == baseline
        assert Database.verify(tmp_path / "db").ok


class TestSnapshot:
    """Each reader answers from the one generation it took."""

    def test_logical_ordinals_skip_tombstones(self, tmp_path):
        records = _records(8)
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=3
        ) as database:
            database.delete([1, 2, 6])
            stored = [0, 3, 4, 5, 7]
            assert len(database) == 5
            assert [database.record(o).identifier for o in range(5)] == [
                records[s].identifier for s in stored
            ]
            assert [database.shard_of(o).name for o in range(5)] == [
                "shard-0000", "shard-0001", "shard-0001", "shard-0001",
                "shard-0002",
            ]
            with pytest.raises(SearchError):
                database.record(5)

    def test_records_iteration_outlives_a_delete(self, tmp_path):
        records = _records(30)
        query = _query(records[1])
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=2
        ) as database:
            iteration = database.records()
            first = next(iteration)
            database.delete([0])
            assert [first.identifier] + [r.identifier for r in iteration] == [
                r.identifier for r in records
            ]
            # The database itself answers from the new generation.
            assert database.alignment(query, 0).score == local_align(
                query.codes, records[1].codes, ScoringScheme()
            ).score
            last = database.shard_of(28)
            assert last.store.identifier(29 - last.base) == (
                records[29].identifier
            )
            with pytest.raises(SearchError):
                database.shard_of(29)

    def test_calibration_outlives_a_mutation(self, tmp_path, monkeypatch):
        import repro.database

        calls = []

        def counting(scheme):
            calls.append(scheme)
            return calibrate_gapped(scheme)

        monkeypatch.setattr(repro.database, "calibrate_gapped", counting)
        records = _records(16)
        query = _query(records[3])
        with Database.create(
            records[:12], tmp_path / "db", params=PARAMS
        ) as database:
            database.search(query, with_evalues=True)
            database.add_records(records[12:])
            report = database.search(query, with_evalues=True)
        assert len(calls) == 1
        assert report.generation == 1


def _make_record(counter, rng):
    codes = rng.integers(0, 4, 120, dtype=np.uint8)
    return Sequence(f"gen{counter:04d}", codes)


class TestInterleavedProperty:
    """Random add/delete/compact interleavings against a list oracle."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_after_every_step(self, data):
        rng = np.random.default_rng(7)
        base = [_make_record(number, rng) for number in range(8)]
        counter = len(base)
        oracle = list(base)
        with tempfile.TemporaryDirectory() as scratch:
            database = Database.create(
                base, Path(scratch) / "db", params=PARAMS, shards=2
            )
            try:
                steps = data.draw(st.integers(2, 5), label="steps")
                for _ in range(steps):
                    operation = data.draw(
                        st.sampled_from(["add", "delete", "compact"]),
                        label="op",
                    )
                    if operation == "add":
                        count = data.draw(st.integers(1, 3), label="count")
                        fresh = [
                            _make_record(counter + offset, rng)
                            for offset in range(count)
                        ]
                        counter += count
                        database.add_records(fresh)
                        oracle.extend(fresh)
                    elif operation == "delete":
                        if len(oracle) <= 1:
                            continue
                        victim = data.draw(
                            st.integers(0, len(oracle) - 1), label="victim"
                        )
                        database.delete([victim])
                        oracle.pop(victim)
                    else:
                        target = data.draw(
                            st.integers(1, 3), label="shards"
                        )
                        database.compact(shards=target)
                    assert [r.identifier for r in database.records()] == [
                        r.identifier for r in oracle
                    ]
                    probe_from = data.draw(
                        st.integers(0, len(oracle) - 1), label="probe"
                    )
                    probe = Sequence(
                        "probe", oracle[probe_from].codes[10:90].copy()
                    )
                    engine = _oracle_engine(oracle)
                    assert parity_report_key(
                        database.search(probe, top_k=5, coarse_cutoff=10)
                    ) == parity_report_key(engine.search(probe, top_k=5))
            finally:
                database.close()


class TestConcurrentWrites:
    """Searches racing ingest, delete and compaction on one database."""

    def test_searches_survive_writes(self, tmp_path):
        """Every report a reader gets equals, hit for hit, a rebuild of
        the one generation its ``generation`` names."""
        records = _records(200, length=150, seed=41)
        fresh = _records(60, length=150, seed=43, prefix="add")
        queries = [_query(records[slot], 20, 90) for slot in (3, 50, 120)]
        queries.append(_query(fresh[7], 20, 90))
        database = Database.create(
            records, tmp_path / "db", params=PARAMS, shards=2
        )
        errors: list[Exception] = []
        seen: list[tuple[int, int, tuple]] = []
        searches = [0, 0]
        writing = threading.Event()
        writing.set()

        def reader(slot):
            while writing.is_set():
                number = searches[slot] % len(queries)
                try:
                    report = database.search(
                        queries[number], top_k=5, coarse_cutoff=10
                    )
                except Exception as exc:  # counted, asserted below
                    errors.append(exc)
                else:
                    seen.append(
                        (report.generation, number, parity_report_key(report))
                    )
                searches[slot] += 1

        readers = [
            threading.Thread(target=reader, args=(slot,)) for slot in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        for thread in readers:
            thread.start()
        oracle = list(records)
        generations = {0: list(oracle)}
        try:
            for round_ in range(12):
                added = fresh[5 * round_ : 5 * round_ + 5]
                oracle.extend(added)
                generations[database.add_records(added)] = list(oracle)
                oracle.pop(1)
                generations[database.delete([1])] = list(oracle)
                if round_ % 3 == 2:
                    generations[database.compact()] = list(oracle)
        finally:
            writing.clear()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        assert min(searches) > 0
        expected: dict[tuple[int, int], tuple] = {}
        for generation, number, key in seen:
            if (generation, number) not in expected:
                expected[generation, number] = parity_report_key(
                    _oracle_engine(generations[generation]).search(
                        queries[number], top_k=5
                    )
                )
            assert key == expected[generation, number], (generation, number)
        rebuilt = Database.create(oracle, tmp_path / "fresh", params=PARAMS)
        for query in queries:
            assert parity_report_key(
                database.search(query, top_k=5, coarse_cutoff=10)
            ) == parity_report_key(
                rebuilt.search(query, top_k=5, coarse_cutoff=10)
            )
        rebuilt.close()
        database.close()


class TestServingStats:
    def test_stats_report_live_generation(self, tmp_path):
        from repro.serving.server import SearchServer

        records = _records(14)
        _grown_db(tmp_path / "db", records, base=10, splits=(10, 12))
        with Database.open(tmp_path / "db") as database:
            server = SearchServer(database.engine(coarse_cutoff=10))
            status, _, payload = server.handle_request("GET", "/stats", b"")
            assert status == 200
            stats = json.loads(payload)
            assert stats["lsm"]["generation"] == 3
            assert stats["lsm"]["delta_shards"] == 2
            assert stats["lsm"]["tombstones"] > 0

    def test_stats_lsm_null_for_plain_engines(self, small_index, small_source):
        from repro.serving.server import SearchServer

        engine = PartitionedSearchEngine(
            small_index, small_source, coarse_cutoff=10
        )
        server = SearchServer(engine)
        status, _, payload = server.handle_request("GET", "/stats", b"")
        assert status == 200
        assert json.loads(payload)["lsm"] is None


class TestCliLifecycle:
    def test_ingest_delete_compact_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sequences.fasta import write_fasta

        records = _records(18)
        write_fasta(records[:12], tmp_path / "base.fa")
        write_fasta(records[12:], tmp_path / "delta.fa")
        db = tmp_path / "db"
        assert main(
            ["build", str(tmp_path / "base.fa"), "-o", str(db), "--shards", "2"]
        ) == 0
        assert main(["ingest", str(db), str(tmp_path / "delta.fa")]) == 0
        assert "generation 1" in capsys.readouterr().out
        assert main(["delete", str(db), records[4].identifier]) == 0
        assert "1 tombstone(s)" in capsys.readouterr().out
        assert main(["verify", str(db)]) == 0
        assert main(["compact", str(db), "--shards", "2"]) == 0
        assert "generation 3" in capsys.readouterr().out
        assert main(["compact", str(db)]) == 0
        assert "nothing to compact" in capsys.readouterr().out
        assert main(["verify", str(db)]) == 0
        with Database.open(db) as database:
            assert len(database) == 17
            assert database.generation == 3
