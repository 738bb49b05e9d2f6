"""Integration tests: the invariants DESIGN.md promises, end to end."""

import numpy as np
import pytest

from repro.eval.ground_truth import compute_ground_truth
from repro.eval.metrics import recall_at
from repro.index.builder import IndexParameters, build_index
from repro.index.stopping import stop_most_frequent
from repro.index.storage import read_index, write_index
from repro.index.store import read_store, write_store
from repro.search.engine import PartitionedSearchEngine
from repro.search.exhaustive import ExhaustiveSearcher


class TestPartitionedEqualsExhaustive:
    """With cutoff = collection size, partitioned search must agree with
    the exhaustive scanner on every answer the index can reach."""

    def test_rankings_identical_for_index_reachable_answers(
        self, small_workload, small_index, small_source
    ):
        collection, queries = small_workload
        engine = PartitionedSearchEngine(
            small_index,
            small_source,
            coarse_cutoff=len(collection.sequences),
        )
        exhaustive = ExhaustiveSearcher(small_source)
        for case in queries:
            partitioned = engine.search(case.query, top_k=10)
            oracle = exhaustive.search(case.query, top_k=10)
            partitioned_scores = {
                hit.ordinal: hit.score for hit in partitioned.hits
            }
            # Every partitioned answer carries the true alignment score.
            for hit in oracle.hits:
                if hit.ordinal in partitioned_scores:
                    assert partitioned_scores[hit.ordinal] == hit.score
            # The top answer has index-visible evidence by construction
            # (the query is a window of it), so it must agree exactly.
            assert partitioned.best().ordinal == oracle.best().ordinal
            assert partitioned.best().score == oracle.best().score

    def test_fine_scores_equal_oracle_scores(
        self, small_workload, small_index, small_source
    ):
        collection, queries = small_workload
        engine = PartitionedSearchEngine(
            small_index,
            small_source,
            coarse_cutoff=len(collection.sequences),
        )
        exhaustive = ExhaustiveSearcher(small_source)
        truth = compute_ground_truth(
            exhaustive, [case.query for case in queries]
        )
        for case, entry in zip(queries, truth.truths):
            report = engine.search(case.query, top_k=20)
            for hit in report.hits:
                assert hit.score == int(entry.scores[hit.ordinal])


class TestRecallUnderPruning:
    def test_small_cutoff_retains_family_recall(
        self, small_workload, small_index, small_source
    ):
        _, queries = small_workload
        engine = PartitionedSearchEngine(
            small_index, small_source, coarse_cutoff=10
        )
        recalls = []
        for case in queries:
            report = engine.search(case.query, top_k=10)
            recalls.append(recall_at(report.ordinals(), case.relevant, 10))
        assert float(np.mean(recalls)) >= 0.75

    def test_stopped_index_still_answers(
        self, small_workload, small_index, small_source
    ):
        _, queries = small_workload
        stopped, report = stop_most_frequent(small_index, 0.02)
        assert report.dropped_intervals > 0
        engine = PartitionedSearchEngine(
            stopped, small_source, coarse_cutoff=10
        )
        found = 0
        for case in queries:
            hits = engine.search(case.query, top_k=10)
            if case.source_ordinal in hits.ordinals():
                found += 1
        assert found == len(queries)


class TestDiskPipeline:
    """The whole system survives a disk round trip (the paper's actual
    deployment shape: on-disk index + on-disk store)."""

    @pytest.fixture()
    def disk_paths(self, small_workload, small_index, tmp_path):
        collection, _ = small_workload
        index_path = tmp_path / "c.rpix"
        store_path = tmp_path / "c.rpsq"
        write_index(small_index, index_path)
        write_store(list(collection.sequences), store_path, coding="direct")
        return index_path, store_path

    def test_disk_engine_matches_memory_engine(
        self, small_workload, small_index, small_source, disk_paths
    ):
        _, queries = small_workload
        index_path, store_path = disk_paths
        memory_engine = PartitionedSearchEngine(
            small_index, small_source, coarse_cutoff=15
        )
        with read_index(index_path) as index, read_store(store_path) as store:
            disk_engine = PartitionedSearchEngine(
                index, store, coarse_cutoff=15
            )
            for case in queries:
                from_memory = memory_engine.search(case.query, top_k=5)
                from_disk = disk_engine.search(case.query, top_k=5)
                assert [
                    (hit.ordinal, hit.score) for hit in from_memory.hits
                ] == [(hit.ordinal, hit.score) for hit in from_disk.hits]

    def test_raw_and_direct_stores_agree(
        self, small_workload, small_index, tmp_path, disk_paths
    ):
        collection, queries = small_workload
        index_path, direct_path = disk_paths
        raw_path = tmp_path / "raw.rpsq"
        write_store(list(collection.sequences), raw_path, coding="raw")
        with read_index(index_path) as index, \
                read_store(direct_path) as direct, \
                read_store(raw_path) as raw:
            direct_engine = PartitionedSearchEngine(index, direct, coarse_cutoff=10)
            raw_engine = PartitionedSearchEngine(index, raw, coarse_cutoff=10)
            case = queries[0]
            assert [
                (h.ordinal, h.score)
                for h in direct_engine.search(case.query).hits
            ] == [
                (h.ordinal, h.score) for h in raw_engine.search(case.query).hits
            ]


class TestBaselineAgreement:
    """All four engines must agree on the easy part of the task: the
    query's own source sequence is the best answer."""

    def test_engines_agree_on_best_answer(self, small_workload, small_index, small_source):
        from repro.search.blast_like import BlastLikeSearcher
        from repro.search.fasta_like import FastaLikeSearcher

        collection, queries = small_workload
        records = list(collection.sequences)
        engines = {
            "partitioned": PartitionedSearchEngine(
                small_index, small_source, coarse_cutoff=20
            ),
            "exhaustive": ExhaustiveSearcher(records),
            "fasta": FastaLikeSearcher(records),
            "blast": BlastLikeSearcher(records),
        }
        case = queries[0]
        for name, engine in engines.items():
            report = engine.search(case.query, top_k=3)
            assert report.best() is not None, name
            assert report.best().ordinal == case.source_ordinal, name


class TestIndexParameterVariants:
    @pytest.mark.parametrize(
        "params",
        [
            IndexParameters(interval_length=6),
            IndexParameters(interval_length=10),
            IndexParameters(interval_length=8, stride=4),
            IndexParameters(interval_length=8),
        ],
        ids=["k6", "k10", "stride4", "no-positions"],
    )
    def test_search_works_across_index_shapes(self, small_workload, params):
        collection, queries = small_workload
        records = list(collection.sequences)
        index = build_index(records, params)
        from repro.index.store import MemorySequenceSource

        engine = PartitionedSearchEngine(
            index, MemorySequenceSource(records), coarse_cutoff=15
        )
        case = queries[0]
        report = engine.search(case.query, top_k=5)
        assert report.best().ordinal == case.source_ordinal
