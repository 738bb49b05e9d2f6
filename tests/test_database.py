"""Unit tests for the Database facade."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.align.scoring import ScoringScheme
from repro.database import Database
from repro.errors import IndexFormatError, SearchError
from repro.index.builder import IndexParameters
from repro.search.exhaustive import ExhaustiveSearcher
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def records():
    rng = np.random.default_rng(161)
    made = [
        Sequence(f"db{slot}", rng.integers(0, 4, 300, dtype=np.uint8))
        for slot in range(30)
    ]
    relative = made[20].codes.copy()
    relative[50:200] = made[4].codes[50:200]
    made[20] = Sequence("db20", relative)
    return made


@pytest.fixture(scope="module")
def database(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("dbs") / "demo.db"
    db = Database.create(records, path)
    yield db
    db.close()


class TestLifecycle:
    def test_create_writes_manifest_and_files(self, database):
        assert (database.path / "manifest.json").exists()
        assert (database.path / "intervals.rpix").exists()
        assert (database.path / "sequences.rpsq").exists()
        assert database.manifest["sequences"] == 30

    def test_double_create_rejected(self, records, database):
        with pytest.raises(IndexFormatError, match="already holds"):
            Database.create(records, database.path)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(IndexFormatError, match="manifest"):
            Database.open(tmp_path / "nowhere")

    def test_bad_manifest_rejected(self, records, tmp_path):
        path = tmp_path / "broken.db"
        Database.create(records, path).close()
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(IndexFormatError, match="bad manifest"):
            Database.open(path)

    def test_version_check(self, records, tmp_path):
        import json

        path = tmp_path / "old.db"
        Database.create(records, path).close()
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError, match="version"):
            Database.open(path)

    def test_context_manager(self, records, tmp_path):
        path = tmp_path / "cm.db"
        Database.create(records, path).close()
        with Database.open(path) as db:
            assert len(db) == 30

    def test_custom_params_persisted(self, records, tmp_path):
        path = tmp_path / "k6.db"
        db = Database.create(
            records, path, params=IndexParameters(interval_length=6)
        )
        try:
            assert db.index.params.interval_length == 6
        finally:
            db.close()
        with Database.open(path) as reopened:
            assert reopened.index.params.interval_length == 6


class TestAccess:
    def test_len_and_total_bases(self, database, records):
        assert len(database) == len(records)
        assert database.total_bases == sum(len(r) for r in records)

    def test_record_roundtrip(self, database, records):
        assert database.record(7) == records[7]

    def test_records_iterates_in_order(self, database, records):
        assert list(database.records()) == records

    def test_describe_mentions_key_numbers(self, database):
        text = database.describe()
        assert "30 sequences" in text
        assert "direct coding" in text


class TestSearch:
    def test_basic_search(self, database, records):
        query = records[11].slice(50, 220)
        report = database.search(query, top_k=5)
        assert report.best().ordinal == 11

    def test_finds_planted_relative(self, database, records):
        query = records[4].slice(60, 190)
        report = database.search(query, top_k=5)
        assert {hit.ordinal for hit in report.hits[:2]} == {4, 20}

    def test_engine_is_cached_per_configuration(self, database):
        assert database.engine(coarse_cutoff=10) is database.engine(
            coarse_cutoff=10
        )
        assert database.engine(coarse_cutoff=10) is not database.engine(
            coarse_cutoff=20
        )

    def test_evalue_engine(self, database, records):
        report = database.search(
            records[2].slice(0, 200), top_k=3, with_evalues=True
        )
        assert report.best().evalue is not None
        assert report.best().evalue < 1e-10

    def test_alternating_schemes_calibrate_once_each(
        self, records, tmp_path, monkeypatch
    ):
        import repro.database as database_module

        calibrated = []

        def counting(scheme):
            calibrated.append(scheme)
            return calibrate_gapped(scheme)

        calibrate_gapped = database_module.calibrate_gapped
        monkeypatch.setattr(database_module, "calibrate_gapped", counting)
        schemes = [ScoringScheme(), ScoringScheme(match=2, mismatch=-2, gap=-5)]
        with Database.create(records, tmp_path / "ev.db") as db:
            # Distinct cutoffs defeat the engine cache, so every call
            # reaches the significance lookup.
            for cutoff in range(1, 7):
                db.engine(
                    coarse_cutoff=cutoff, scheme=schemes[cutoff % 2],
                    with_evalues=True,
                )
        assert sorted(calibrated, key=lambda scheme: scheme.match) == schemes

    def test_both_strands_through_facade(self, database, records):
        query = records[9].slice(40, 200).reverse_complement()
        report = database.search(query, top_k=3, both_strands=True)
        assert report.best().ordinal == 9
        assert report.best().strand == "-"

    def test_frames_mode_through_facade(self, database, records):
        query = records[15].slice(30, 230)
        report = database.search(query, top_k=3, fine_mode="frames")
        assert report.best().ordinal == 15

    def test_alignment_retrieval(self, database, records):
        query = records[5].slice(10, 160)
        alignment = database.alignment(query, 5)
        assert alignment.score == 150
        assert alignment.identity == 1.0

    def test_alignment_ordinal_validation(self, database, records):
        with pytest.raises(SearchError):
            database.alignment(records[0].slice(0, 50), 999)

    def test_custom_scheme_search(self, database, records):
        scheme = ScoringScheme(match=2, mismatch=-2, gap=-5)
        report = database.search(
            records[8].slice(0, 150), top_k=3, scheme=scheme
        )
        assert report.best().ordinal == 8
        assert report.best().score == 300


class TestEngineCacheLRU:
    def test_cache_is_bounded(self, records, tmp_path):
        with Database.create(records, tmp_path / "lru.db") as db:
            limit = Database.ENGINE_CACHE_LIMIT
            for cutoff in range(1, limit + 4):
                db.engine(coarse_cutoff=cutoff)
            assert db.cached_engines == limit

    def test_least_recently_used_is_evicted(self, records, tmp_path):
        with Database.create(records, tmp_path / "lru2.db") as db:
            limit = Database.ENGINE_CACHE_LIMIT
            first = db.engine(coarse_cutoff=1)
            second = db.engine(coarse_cutoff=2)
            for cutoff in range(3, limit + 1):
                db.engine(coarse_cutoff=cutoff)
            # Touch the oldest so the *second* oldest gets evicted.
            assert db.engine(coarse_cutoff=1) is first
            db.engine(coarse_cutoff=limit + 1)
            assert db.engine(coarse_cutoff=1) is first
            assert db.engine(coarse_cutoff=2) is not second

    def test_cache_traffic_is_instrumented(self, records, tmp_path):
        from repro.instrumentation.instruments import Instruments

        with Database.create(records, tmp_path / "lru3.db") as db:
            instruments = Instruments()
            db.set_instruments(instruments)
            db.engine(coarse_cutoff=10)
            db.engine(coarse_cutoff=10)
            db.engine(coarse_cutoff=20)
            snapshot = instruments.metrics.snapshot()
            assert snapshot["counters"]["database.engine_cache.misses"] == 2
            assert snapshot["counters"]["database.engine_cache.hits"] == 1
            assert snapshot["gauges"]["database.engine_cache.size"] == 2


class TestDegradedSearchOptions:
    """A degraded database takes the healthy engine's options: its scan
    runs through the engine's own stages, frames included."""

    @pytest.fixture()
    def degraded_db(self, records, tmp_path):
        from repro.instrumentation import faults

        path = tmp_path / "deg.db"
        Database.create(records, path).close()
        target = path / "intervals.rpix"
        span = faults.index_sections(target)["header_crc"]
        faults.flip_byte(target, span[0], mask=0x80)
        with Database.open(path, on_corruption="fallback") as db:
            assert db.degraded
            yield db

    def test_scheme_is_honoured(self, degraded_db, records):
        query = records[6].slice(0, 120)
        plain = degraded_db.search(query, top_k=1)
        doubled = degraded_db.search(
            query, top_k=1, scheme=ScoringScheme(match=2, mismatch=-2, gap=-5)
        )
        assert plain.degraded and doubled.degraded
        assert doubled.best().score == 2 * plain.best().score

    def test_moot_options_accepted(self, degraded_db, records):
        # A cutoff cannot change what a degraded scan examines and the
        # corruption policy already applied at open; both pass.
        report = degraded_db.search(
            records[6].slice(0, 120), coarse_cutoff=50, on_corruption="raise"
        )
        assert report.degraded

    def test_both_strands_answered(self, degraded_db, records):
        query = records[9].slice(40, 200).reverse_complement()
        report = degraded_db.search(
            query, top_k=len(records), both_strands=True
        )
        scanner = ExhaustiveSearcher(records)
        best = np.maximum(
            scanner.scores(query), scanner.scores(query.reverse_complement())
        )
        assert report.degraded
        assert {hit.ordinal: hit.score for hit in report.hits} == {
            ordinal: int(score)
            for ordinal, score in enumerate(best)
            if score >= 1
        }
        assert report.best().ordinal == 9
        assert report.best().strand == "-"

    def test_evalues_answered(self, degraded_db, database, records):
        query = records[6].slice(0, 120)
        report = degraded_db.search(query, top_k=5, with_evalues=True)
        healthy = database.engine(with_evalues=True)
        assert report.degraded
        assert report.hits
        for hit in report.hits:
            assert hit.evalue == healthy.significance.evalue(
                hit.score, len(query), healthy.total_bases
            )
        assert report.best().evalue == database.search(
            query, top_k=1, with_evalues=True
        ).best().evalue

    def test_frames_answered(self, degraded_db, records):
        """Frames localise from the fetched records, so a scan of every
        live record is cut to frames too."""
        query = records[6].slice(0, 120)
        full = degraded_db.search(query, top_k=len(records))
        framed = degraded_db.search(
            query, top_k=len(records), fine_mode="frames"
        )
        assert framed.degraded
        assert framed.best().ordinal == 6
        assert framed.best().score == full.best().score
        whole = {hit.ordinal: hit.score for hit in full.hits}
        for hit in framed.hits:
            assert hit.score <= whole[hit.ordinal]

    def test_unknown_option_raises_type_error(
        self, degraded_db, database, records
    ):
        for db in (degraded_db, database):
            with pytest.raises(TypeError, match="no_such_option"):
                db.search(records[6].slice(0, 120), no_such_option=1)

    def test_batch_follows_the_same_rules(self, degraded_db, records):
        queries = [records[6].slice(0, 120), records[7].slice(0, 120)]
        reports = degraded_db.search_batch(queries, top_k=2)
        assert all(report.degraded for report in reports)
        both = degraded_db.search_batch(queries, top_k=2, both_strands=True)
        assert [report.hits for report in both] == [
            degraded_db.search(query, top_k=2, both_strands=True).hits
            for query in queries
        ]
        framed = degraded_db.search_batch(queries, top_k=2, fine_mode="frames")
        assert [report.hits for report in framed] == [
            degraded_db.search(query, top_k=2, fine_mode="frames").hits
            for query in queries
        ]


class TestDegradedOracle:
    """Degraded answers equal the exhaustive scan over the survivors,
    hit for hit, on every layout and for both degradation triggers."""

    @given(
        source=st.integers(min_value=0, max_value=44),
        start=st.integers(min_value=0, max_value=150),
        length=st.integers(min_value=30, max_value=70),
    )
    def test_degraded_layouts_answer_like_the_scan(
        self, parity_worlds, degraded_worlds, source, start, length
    ):
        every = parity_worlds.survivors + parity_worlds.doomed
        record = sorted(every, key=lambda r: r.identifier)[source]
        query = Sequence("window", record.codes[start : start + length])
        top_k = len(parity_worlds.survivors)
        expected = [
            (hit.ordinal, hit.identifier, hit.score)
            for hit in ExhaustiveSearcher(parity_worlds.survivors)
            .search(query, top_k=top_k)
            .hits
        ]
        for (layout, how), database in degraded_worlds.items():
            report = database.search(query, top_k=top_k)
            assert report.degraded, (layout, how)
            assert [
                (hit.ordinal, hit.identifier, hit.score)
                for hit in report.hits
            ] == expected, (layout, how)


class TestConcurrentEngineCache:
    def test_concurrent_engine_calls_share_one_cache_entry(self, database):
        """The engine cache must be safe under concurrent access: every
        thread gets the same cached engine and the LRU never corrupts
        (the pre-lock race built duplicate engines and could evict a
        live one mid-build)."""
        import threading

        database._snapshot.engines.clear()
        engines = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(25):
                engines.append(database.engine(coarse_cutoff=64))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(engines) == 200
        assert len({id(engine) for engine in engines}) == 1
        assert database.cached_engines == 1

    def test_concurrent_distinct_options_respect_lru_bound(self, database):
        import threading

        database._snapshot.engines.clear()
        errors = []

        def worker(slot):
            try:
                for cutoff in range(16, 16 + 12):
                    database.engine(coarse_cutoff=cutoff + slot)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert database.cached_engines <= database.ENGINE_CACHE_LIMIT


class TestDifferentialParity:
    """The facade serves the same answers from any of the three layouts."""

    def test_layouts_agree_with_evalues(self, parity_worlds):
        parity_worlds.check(with_evalues=True)

    def test_describe_reports_live_state(self, parity_worlds):
        description = parity_worlds.live.describe()
        assert "generation 3" in description
        assert "2 delta shard" in description
        single = parity_worlds.single.describe()
        assert "generation" not in single
