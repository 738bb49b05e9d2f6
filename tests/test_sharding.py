"""Shard layer: planner, layout, parallel build, fan-out/merge parity.

The load-bearing invariant is *score identity*: a
:class:`PartitionedSearchEngine` over any number of shards must return
hit-for-hit identical results to one over the unsharded collection —
same ordinals, scores, coarse scores, strands, E-values, and candidate
counts — for every fine mode, and with tombstones the same as a rebuild
over the survivors.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.scoring import ScoringScheme
from repro.database import Database
from repro.errors import (
    CorruptionError,
    IndexFormatError,
    IndexParameterError,
    SearchError,
)
from repro.index.builder import IndexParameters, build_index
from repro.index.store import (
    MemorySequenceSource,
    SequenceStore,
    write_store,
)
from repro.instrumentation import faults
from repro.instrumentation.instruments import Instruments
from repro.search.coarse import SCORERS
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence
from repro.sharding import ShardSpec, plan_shards, shard_of
from repro.sharding.build import build_sharded_database
from repro.sharding.manifest import read_layout

PARAMS = IndexParameters(interval_length=6)


def _records(count=36, length=220, seed=17):
    rng = np.random.default_rng(seed)
    records = []
    for slot in range(count):
        codes = rng.integers(0, 4, length, dtype=np.uint8)
        # Plant shared fragments so queries have multi-shard answers.
        if slot % 3 == 0:
            codes[20:80] = rng.integers(0, 4, 60, dtype=np.uint8) if slot == 0 \
                else records[0].codes[20:80]
        records.append(Sequence(f"sh{slot:03d}", codes))
    return records


def _queries(records, seed=5):
    rng = np.random.default_rng(seed)
    queries = []
    for number in range(6):
        source = records[int(rng.integers(0, len(records)))]
        start = int(rng.integers(0, len(source) - 100))
        queries.append(Sequence(f"q{number}", source.codes[start : start + 100].copy()))
    return queries


def _report_key(report):
    return (
        [
            (hit.ordinal, hit.identifier, hit.score, hit.coarse_score,
             hit.strand, hit.evalue)
            for hit in report.hits
        ],
        report.candidates_examined,
    )


def _split_engines(records, shards, params=PARAMS, **kwargs):
    plan = plan_shards(len(records), shards)
    pairs = []
    for spec in plan:
        chunk = records[spec.base : spec.stop]
        pairs.append(
            (build_index(chunk, params), MemorySequenceSource(chunk))
        )
    return PartitionedSearchEngine.over_shards(pairs, **kwargs)


class TestPlanner:
    def test_balanced_split(self):
        plan = plan_shards(10, 4)
        assert [(spec.base, spec.count) for spec in plan] == [
            (0, 3), (3, 3), (6, 2), (8, 2),
        ]
        assert plan[-1].stop == 10

    def test_single_shard(self):
        plan = plan_shards(7, 1)
        assert len(plan) == 1
        assert (plan[0].base, plan[0].count) == (0, 7)

    def test_more_shards_than_sequences_clamps(self):
        plan = plan_shards(3, 8)
        assert len(plan) == 3
        assert all(spec.count == 1 for spec in plan)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(IndexParameterError):
            plan_shards(0, 2)
        with pytest.raises(IndexParameterError):
            plan_shards(5, 0)
        with pytest.raises(IndexParameterError):
            ShardSpec(0, 0, 0)

    def test_shard_of_locates_every_ordinal(self):
        plan = plan_shards(11, 3)
        bases = [spec.base for spec in plan]
        for ordinal in range(11):
            slot = shard_of(bases, ordinal)
            assert plan[slot].base <= ordinal < plan[slot].stop

    def test_shard_names_are_stable(self):
        assert plan_shards(4, 2)[1].name == "shard-0001"


class TestLayoutManifest:
    def test_round_trip(self, tmp_path):
        records = _records(12)
        Database.create(records, tmp_path / "db", params=PARAMS, shards=3).close()
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        layout = read_layout(manifest).entries
        assert [entry.name for entry in layout] == [
            "shard-0000", "shard-0001", "shard-0002",
        ]
        assert [entry.base for entry in layout] == [0, 4, 8]
        assert sum(entry.sequences for entry in layout) == 12

    def test_single_shard_manifest_has_no_shards_key(self, tmp_path):
        Database.create(_records(6), tmp_path / "db", params=PARAMS).close()
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert "shards" not in manifest
        assert [entry.name for entry in read_layout(manifest).entries] == [""]

    def test_non_contiguous_layout_rejected(self, tmp_path):
        records = _records(12)
        Database.create(records, tmp_path / "db", params=PARAMS, shards=2).close()
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"]["layout"][1]["base"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError, match="contiguous"):
            Database.open(tmp_path / "db")

    def test_count_mismatch_rejected(self, tmp_path):
        records = _records(12)
        Database.create(records, tmp_path / "db", params=PARAMS, shards=2).close()
        manifest_path = tmp_path / "db" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"]["count"] = 3
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError):
            Database.open(tmp_path / "db")


class TestSingleShardByteCompatibility:
    def test_layout_is_the_classic_file_set(self, tmp_path):
        Database.create(_records(8), tmp_path / "db", params=PARAMS).close()
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == [
            "intervals.rpix", "manifest.json", "sequences.rpsq",
        ]

    def test_manifest_matches_pre_shard_schema(self, tmp_path):
        Database.create(_records(8), tmp_path / "db", params=PARAMS).close()
        manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert sorted(manifest) == [
            "bases", "checksums", "coarse", "coding", "index_bytes",
            "params", "sequences", "store_bytes", "version",
        ]
        assert manifest["version"] == 2
        assert manifest["coarse"] == {"backend": "inverted", "params": {}}


class TestScoreIdentity:
    """Sharded answers must equal the single-engine answers exactly."""

    @pytest.fixture(scope="class")
    def workload(self):
        records = _records()
        return records, _queries(records)

    @pytest.fixture(scope="class")
    def significance(self):
        from repro.align.statistics import calibrate_gapped

        return calibrate_gapped(ScoringScheme())

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("fine_mode", ["full", "frames"])
    def test_parity_across_shard_counts(self, workload, shards, fine_mode):
        records, queries = workload
        single = PartitionedSearchEngine(
            build_index(records, PARAMS),
            MemorySequenceSource(records),
            coarse_cutoff=12,
            fine_mode=fine_mode,
        )
        sharded = _split_engines(
            records, shards, coarse_cutoff=12, fine_mode=fine_mode
        )
        for query in queries:
            assert _report_key(sharded.search(query, top_k=10)) == \
                _report_key(single.search(query, top_k=10))

    def test_parity_with_both_strands_and_evalues(self, workload):
        from repro.align.statistics import calibrate_gapped

        records, queries = workload
        significance = calibrate_gapped(ScoringScheme())
        single = PartitionedSearchEngine(
            build_index(records, PARAMS),
            MemorySequenceSource(records),
            coarse_cutoff=15,
            both_strands=True,
            significance=significance,
        )
        sharded = _split_engines(
            records, 3, coarse_cutoff=15, both_strands=True,
            significance=significance,
        )
        for query in queries:
            assert _report_key(sharded.search(query, top_k=8)) == \
                _report_key(single.search(query, top_k=8))

    def test_database_facade_parity(self, workload, tmp_path):
        records, queries = workload
        Database.create(records, tmp_path / "one", params=PARAMS).close()
        Database.create(
            records, tmp_path / "four", params=PARAMS, shards=4, workers=2
        ).close()
        with Database.open(tmp_path / "one") as db1, \
                Database.open(tmp_path / "four") as db4:
            assert db1.num_shards == 1
            assert db4.num_shards == 4
            for query in queries:
                assert _report_key(
                    db4.search(query, top_k=10, both_strands=True)
                ) == _report_key(
                    db1.search(query, top_k=10, both_strands=True)
                )

    @settings(deadline=None, max_examples=30)
    @given(
        shards=st.sampled_from([2, 3, 4]),
        dead=st.sets(st.integers(0, 35), max_size=12),
        scorer=st.sampled_from(SCORERS),
        fine_mode=st.sampled_from(["full", "frames"]),
        both_strands=st.booleans(),
    )
    def test_layout_parity_property(
        self, workload, significance, shards, dead, scorer, fine_mode,
        both_strands,
    ):
        """One shard, K shards, and either with tombstones all answer
        like a rebuild over the survivors."""
        records, queries = workload
        tombstones = sorted(dead)
        survivors = [
            record for ordinal, record in enumerate(records)
            if ordinal not in dead
        ]
        options = dict(
            coarse_scorer=scorer, coarse_cutoff=9, fine_mode=fine_mode,
            both_strands=both_strands, significance=significance,
        )
        rebuilt = _split_engines(survivors, 1, **options)
        layouts = [
            _split_engines(records, 1, tombstones=tombstones, **options),
            _split_engines(records, shards, tombstones=tombstones, **options),
            _split_engines(survivors, shards, **options),
        ]
        for query in queries:
            expected = _report_key(rebuilt.search(query, top_k=7))
            for layout in layouts:
                assert _report_key(layout.search(query, top_k=7)) == expected

    def test_bad_tombstones_rejected(self):
        records = _records(6)
        for bad in ([2, 1], [1, 1], [6], [-1]):
            with pytest.raises(SearchError, match="tombstone"):
                _split_engines(records, 2, tombstones=bad)

    @pytest.mark.parametrize("fine_mode", ["full", "frames"])
    def test_hand_composed_phases_equal_search(self, workload, fine_mode):
        """coarse_rank -> tombstone filter -> merge-cut -> fine_align
        over per-shard one-shard engines answers exactly as ``search``'s
        one masked cut over every shard's scores (the contract
        e2e_bench/live_mixed.py checks every traced query against)."""
        records, queries = workload
        cutoff, top_k = 9, 7
        dead = {1, 2, 13, 14, 30}
        plan = plan_shards(len(records), 3)
        pairs = [
            (
                build_index(records[spec.base : spec.stop], PARAMS),
                MemorySequenceSource(records[spec.base : spec.stop]),
            )
            for spec in plan
        ]
        whole = PartitionedSearchEngine.over_shards(
            pairs, coarse_cutoff=cutoff, fine_mode=fine_mode,
            tombstones=sorted(dead),
        )
        engines = [
            PartitionedSearchEngine(
                index, source, coarse_cutoff=cutoff, fine_mode=fine_mode
            )
            for index, source in pairs
        ]
        with pytest.raises(SearchError, match="one shard"):
            whole.coarse_rank(queries[0].codes)
        for query in queries:
            rows = []
            for spec, engine in zip(plan, engines):
                widened = cutoff + sum(spec.base <= o < spec.stop for o in dead)
                ranked = engine.coarse_rank(query.codes, cutoff=widened)
                alive = [
                    c for c in ranked if spec.base + c.ordinal not in dead
                ][:cutoff]
                rows += [
                    (-c.coarse_score, spec.base + c.ordinal, spec.shard_id, c)
                    for c in alive
                ]
            rows.sort(key=lambda row: row[:2])
            hits = []
            for spec, engine in zip(plan, engines):
                mine = [r[3] for r in rows[:cutoff] if r[2] == spec.shard_id]
                hits += [
                    (-h.score, -h.coarse_score, spec.base + h.ordinal,
                     h.identifier)
                    for h in engine.fine_align(query.codes, mine)
                ]
            hits.sort()
            report = whole.search(query, top_k=top_k)
            assert [(h[3], -h[0]) for h in hits[:top_k]] == [
                (hit.identifier, hit.score) for hit in report.hits
            ]
            assert report.candidates_examined == len(rows[:cutoff])

    def test_skip_drops_corrupt_records_at_fetch(self, workload, tmp_path):
        """One corrupt record in each of two shards under ``"skip"``:
        each is dropped at fetch (logged and counted once), every other
        hit stands, and no record is fetched twice — the one image is
        never rebuilt around a bad record."""
        records, _ = workload
        query = Sequence("q", records[0].codes[10:110].copy())
        corrupt = (3, 27)  # both carry record 0's fragment; shards 0 and 2
        pairs, healthy = [], []
        for spec in plan_shards(len(records), 3):
            chunk = records[spec.base : spec.stop]
            path = tmp_path / f"{spec.name}.rpsq"
            write_store(chunk, path)
            for ordinal in corrupt:
                if spec.base <= ordinal < spec.stop:
                    with SequenceStore(path) as pristine:
                        start = pristine._payload_start + int(
                            pristine._offsets[ordinal - spec.base]
                        )
                    faults.flip_byte(path, start + 2, mask=0x10)
            index = build_index(chunk, PARAMS)
            pairs.append((index, SequenceStore(path)))
            healthy.append((index, MemorySequenceSource(chunk)))
        instruments = Instruments()
        engine = PartitionedSearchEngine.over_shards(
            pairs, coarse_cutoff=15, on_corruption="skip",
            instruments=instruments,
        )
        try:
            report = engine.search(query, top_k=30)
        finally:
            for _, store in pairs:
                store.close()
        expected = PartitionedSearchEngine.over_shards(
            healthy, coarse_cutoff=15
        ).search(query, top_k=30)
        lost = {records[ordinal].identifier for ordinal in corrupt}
        assert lost <= {hit.identifier for hit in expected.hits}
        assert report.quarantined_sequences == 2
        assert report.hits == [
            hit for hit in expected.hits if hit.identifier not in lost
        ]
        assert report.candidates_examined == expected.candidates_examined - 2
        counters = instruments.metrics.snapshot()["counters"]
        assert counters["store.quarantined_sequences"] == 2
        assert counters["store.records_fetched"] == (
            expected.candidates_examined
        )

    def test_collection_scorers_need_one_whole_shard(self, workload):
        """idf takes its statistics over the live collection, so it is
        accepted on every layout and answers like a rebuild over the
        survivors, a sparse stride included; ``normalised`` is gone, and
        any other scorer is refused as unknown on every layout."""
        records, queries = workload
        dead = [3, 17, 30]
        survivors = [
            record for ordinal, record in enumerate(records)
            if ordinal not in dead
        ]
        for params in (PARAMS, IndexParameters(interval_length=6, stride=3)):
            options = dict(coarse_scorer="idf", coarse_cutoff=10, params=params)
            rebuilt = _split_engines(survivors, 1, **options)
            layouts = [
                _split_engines(survivors, 2, **options),
                _split_engines(records, 1, tombstones=dead, **options),
                _split_engines(records, 3, tombstones=dead, **options),
            ]
            for query in queries:
                expected = _report_key(rebuilt.search(query))
                assert expected[0]
                for layout in layouts:
                    assert _report_key(layout.search(query)) == expected

        class CountLike:
            name = "count"

        for layout in (
            dict(shards=1),
            dict(shards=2),
            dict(shards=1, tombstones=[3]),
        ):
            for scorer in ("normalised", CountLike()):
                with pytest.raises(SearchError, match="unknown coarse scorer"):
                    _split_engines(records, coarse_scorer=scorer, **layout)
        index, source = build_index(records, PARAMS), MemorySequenceSource(records)
        with pytest.raises(SearchError, match="unknown coarse scorer"):
            PartitionedSearchEngine(index, source, coarse_scorer="normalised")
        with pytest.raises(SearchError, match="unknown coarse scorer"):
            PartitionedSearchEngine(None, source, coarse_scorer=CountLike())

    def test_collection_scorers_on_database(self, workload, tmp_path):
        """A 3-shard database grown by a delta and tombstones answers idf
        exactly as a classic database built over the survivors."""
        records, queries = workload
        dead = [3, 20, 33]
        survivors = [
            record for ordinal, record in enumerate(records)
            if ordinal not in dead
        ]
        Database.create(
            survivors, tmp_path / "classic", params=PARAMS
        ).close()
        grown = Database.create(
            records[:30], tmp_path / "grown", params=PARAMS, shards=3
        )
        grown.add_records(records[30:])
        grown.delete(dead)
        with grown, Database.open(tmp_path / "classic") as classic:
            assert grown.num_shards == 4 and grown.tombstone_count == 3
            for query in queries:
                expected = classic.search(query, coarse_scorer="idf")
                assert expected.hits
                assert _report_key(
                    grown.search(query, coarse_scorer="idf")
                ) == _report_key(expected)


class TestShardedSequenceSource:
    """Global ordinals route to the shard store holding them; the
    routing is the database snapshot's logical-to-stored map."""

    def test_global_ordinal_routing(self, tmp_path):
        records = _records(10)
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=3
        ) as db:
            assert len(db) == 10
            for ordinal, record in enumerate(records):
                fetched = db.record(ordinal)
                assert fetched.identifier == record.identifier
                np.testing.assert_array_equal(fetched.codes, record.codes)

    def test_out_of_range_rejected(self, tmp_path):
        with Database.create(_records(3), tmp_path / "db", params=PARAMS) as db:
            with pytest.raises(SearchError):
                db.record(3)
            with pytest.raises(SearchError):
                db.record(-1)


class TestParallelBuild:
    def test_workers_produce_identical_bytes(self, tmp_path):
        records = _records(12)
        plan = plan_shards(12, 3)
        first = build_sharded_database(
            tmp_path / "w1", records, plan, PARAMS, workers=1
        )
        second = build_sharded_database(
            tmp_path / "w3", records, plan, PARAMS, workers=3
        )
        assert first == second  # includes every shard's CRC32 digests
        for spec in plan:
            for name in ("intervals.rpix", "sequences.rpsq"):
                assert (tmp_path / "w1" / spec.name / name).read_bytes() == \
                    (tmp_path / "w3" / spec.name / name).read_bytes()

    def test_each_shard_is_an_openable_database(self, tmp_path):
        records = _records(9)
        Database.create(
            records, tmp_path / "db", params=PARAMS, shards=3
        ).close()
        with Database.open(tmp_path / "db" / "shard-0001") as shard:
            assert len(shard) == 3
            assert shard.record(0).identifier == records[3].identifier

    def test_invalid_arguments(self, tmp_path):
        records = _records(4)
        with pytest.raises(IndexParameterError):
            build_sharded_database(
                tmp_path, records, plan_shards(4, 2), PARAMS, workers=0
            )
        with pytest.raises(IndexParameterError):
            build_sharded_database(tmp_path, records, [], PARAMS)
        with pytest.raises(IndexParameterError):
            Database.create(records, tmp_path / "bad", shards=0)
        with pytest.raises(IndexParameterError):
            Database.create(records, tmp_path / "bad", workers=0)

    def test_shards_clamped_to_collection(self, tmp_path):
        records = _records(3)
        with Database.create(
            records, tmp_path / "tiny", params=PARAMS, shards=8
        ) as db:
            assert db.num_shards == 3
            assert len(db) == 3


class TestDatabaseFacade:
    def test_record_routing_and_shard_of(self, tmp_path):
        records = _records(10)
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=3
        ) as db:
            for ordinal, record in enumerate(records):
                assert db.record(ordinal).identifier == record.identifier
            assert [r.identifier for r in db.records()] == \
                [r.identifier for r in records]
            assert db.shard_of(0).name == "shard-0000"
            assert db.shard_of(9).name == "shard-0002"
            with pytest.raises(SearchError):
                db.shard_of(10)

    def test_index_and_store_are_single_shard_conveniences(self, tmp_path):
        records = _records(8)
        with Database.create(records, tmp_path / "one", params=PARAMS) as db:
            assert db.index is not None
            assert db.store is not None
        with Database.create(
            records, tmp_path / "two", params=PARAMS, shards=2
        ) as db:
            assert db.index is None
            assert db.store is None
            assert db.shards[0].index is not None

    def test_alignment_reaches_every_shard(self, tmp_path):
        records = _records(9)
        with Database.create(
            records, tmp_path / "db", params=PARAMS, shards=3
        ) as db:
            query = Sequence("q", records[7].codes[10:110].copy())
            alignment = db.alignment(query, 7)
            assert alignment.score >= 90

    def test_describe_mentions_shards(self, tmp_path):
        with Database.create(
            _records(8), tmp_path / "db", params=PARAMS, shards=2
        ) as db:
            assert "2 shards" in db.describe()

    def test_full_verify_open(self, tmp_path):
        records = _records(8)
        Database.create(
            records, tmp_path / "db", params=PARAMS, shards=2
        ).close()
        with Database.open(tmp_path / "db", verify="full") as db:
            assert len(db) == 8


class TestShardedVerifyRepair:
    def _sharded_db(self, tmp_path, count=9, shards=3):
        records = _records(count)
        path = tmp_path / "db"
        Database.create(records, path, params=PARAMS, shards=shards).close()
        return path, records

    def test_verify_intact(self, tmp_path):
        path, _ = self._sharded_db(tmp_path)
        assert Database.verify(path).ok

    def test_full_open_cross_checks_shard_manifests(self, tmp_path):
        path, _ = self._sharded_db(tmp_path)
        shard_manifest = path / "shard-0001" / "manifest.json"
        manifest = json.loads(shard_manifest.read_text())
        manifest["bases"] += 1
        shard_manifest.write_text(json.dumps(manifest))
        assert any(
            "shard-0001" in issue and "top-level" in issue
            for issue in Database.verify(path).issues
        )
        with pytest.raises(CorruptionError, match="shard-0001"):
            Database.open(path, verify="full")

    def test_verify_reports_damaged_shard(self, tmp_path):
        path, _ = self._sharded_db(tmp_path)
        target = path / "shard-0001" / "intervals.rpix"
        span = faults.index_sections(target)["table"]
        faults.flip_byte(target, span[0], mask=0x08)
        report = Database.verify(path)
        assert not report.ok
        assert any("shard-0001" in issue for issue in report.issues)

    def test_verify_catches_swapped_shard(self, tmp_path):
        path, records = self._sharded_db(tmp_path)
        # Rebuild shard-0001 with different contents but a fully
        # self-consistent shard directory: only the top-level manifest's
        # recorded digests can catch it.
        import shutil

        from repro.sharding.build import build_shard_directory

        shutil.rmtree(path / "shard-0001")
        build_shard_directory(
            path / "shard-0001", [records[0], records[1], records[2]], PARAMS
        )
        assert Database.verify(path / "shard-0001").ok
        report = Database.verify(path)
        assert not report.ok
        assert any("top-level manifest" in issue for issue in report.issues)

    def test_repair_rebuilds_damaged_shard(self, tmp_path):
        path, records = self._sharded_db(tmp_path)
        query = Sequence("q", records[5].codes[20:120].copy())
        with Database.open(path) as db:
            baseline = _report_key(db.search(query))
        target = path / "shard-0001" / "intervals.rpix"
        span = faults.index_sections(target)["table"]
        faults.zero_page(target, span[0], span[1] - span[0])
        with pytest.raises(CorruptionError):
            Database.open(path)
        with Database.repair(path) as repaired:
            assert repaired.num_shards == 3
            assert _report_key(repaired.search(query)) == baseline
        assert Database.verify(path).ok

    def test_fallback_open_degrades_and_scans(self, tmp_path):
        path, records = self._sharded_db(tmp_path)
        query = Sequence("q", records[5].codes[20:120].copy())
        with Database.open(path) as db:
            expected = db.search(query).best().ordinal
        target = path / "shard-0001" / "intervals.rpix"
        span = faults.index_sections(target)["header_crc"]
        faults.flip_byte(target, span[0], mask=0x80)
        with Database.open(path, on_corruption="fallback") as db:
            assert db.degraded
            report = db.search(query)
            assert report.degraded
            assert report.best().ordinal == expected


class TestShardedInstrumentation:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_per_shard_spans_and_counters(self, shards):
        """One observability surface at every shard count."""
        records = _records(12)
        engine = _split_engines(records, shards, coarse_cutoff=10)
        instruments = Instruments()
        engine.set_instruments(instruments)
        engine.search(Sequence("q", records[4].codes[10:110].copy()))
        counters = instruments.metrics.snapshot()["counters"]
        assert counters["partitioned.queries"] == 1
        assert not any(name.startswith("sharded.") for name in counters)
        for slot in range(shards):
            assert f"partitioned.shard.{slot}.coarse_candidates" in counters
        span_names = {row["name"] for row in instruments.tracer.flat()}
        assert {"search", "coarse", "shard[0].coarse", "merge", "fine"} \
            <= span_names


class TestDifferentialParity:
    """Sharded and incrementally-grown layouts vs the single index."""

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_shard_safe_scorers_agree_across_layouts(
        self, parity_worlds, scorer
    ):
        parity_worlds.check(coarse_scorer=scorer)

    def test_both_strands_agree_across_layouts(self, parity_worlds):
        parity_worlds.check(both_strands=True)

    def test_tombstones_filter_before_merge(self, parity_worlds):
        from repro.instrumentation.instruments import Instruments

        live = parity_worlds.live
        instruments = Instruments()
        live.set_instruments(instruments)
        try:
            live.search(parity_worlds.queries[-1], top_k=10)
            counters = instruments.metrics.snapshot()["counters"]
            assert counters.get("lsm.tombstones_filtered", 0) >= 0
            gauges = instruments.metrics.snapshot()["gauges"]
            assert gauges["lsm.generation"] == 3
            assert gauges["lsm.delta_shards"] == 2
        finally:
            live.set_instruments(None)
