"""Integration across workload variations: composition skew, wildcard
data, mixed lengths, transition scoring — the whole pipeline each time."""

import numpy as np
import pytest

from repro.align.scoring import ScoringScheme
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.search.engine import PartitionedSearchEngine
from repro.search.exhaustive import ExhaustiveSearcher
from repro.sequences.record import Sequence
from repro.workloads.queries import make_family_queries
from repro.workloads.synthetic import WorkloadSpec, generate_collection


def run_pipeline(collection, queries, **engine_kwargs):
    records = list(collection.sequences)
    index = build_index(records, IndexParameters(interval_length=8))
    engine = PartitionedSearchEngine(
        index, MemorySequenceSource(records), coarse_cutoff=15,
        **engine_kwargs,
    )
    found = 0
    for case in queries:
        report = engine.search(case.query, top_k=10)
        if case.source_ordinal in report.ordinals():
            found += 1
    return found / len(queries)


class TestCompositionSkew:
    @pytest.mark.parametrize("gc_content", [0.2, 0.5, 0.8])
    def test_pipeline_robust_to_composition(self, gc_content):
        collection = generate_collection(
            WorkloadSpec(num_families=4, family_size=3, num_background=40,
                         mean_length=400, gc_content=gc_content, seed=6)
        )
        queries = make_family_queries(collection, 5, query_length=150, seed=2)
        assert run_pipeline(collection, queries) == 1.0

    def test_skew_shrinks_effective_vocabulary(self):
        """Composition skew concentrates mass on few intervals, so the
        distinct-interval count drops — the indexing-relevant statistic
        the workload generator is asked to control."""
        def vocabulary_at(gc_content):
            collection = generate_collection(
                WorkloadSpec(num_families=0, num_background=60,
                             mean_length=500, gc_content=gc_content, seed=6)
            )
            index = build_index(
                list(collection.sequences), IndexParameters(interval_length=8)
            )
            return index.vocabulary_size

        assert vocabulary_at(0.9) < vocabulary_at(0.5)


class TestWildcardData:
    def test_pipeline_with_wildcarded_collection(self):
        collection = generate_collection(
            WorkloadSpec(num_families=4, family_size=3, num_background=40,
                         mean_length=400, wildcard_rate=0.005, seed=7)
        )
        queries = make_family_queries(collection, 5, query_length=150, seed=3)
        assert run_pipeline(collection, queries) >= 0.8

    def test_heavily_wildcarded_sequences_still_indexable(self):
        rng = np.random.default_rng(8)
        records = []
        for slot in range(10):
            codes = rng.integers(0, 4, 200, dtype=np.uint8)
            codes[rng.random(200) < 0.2] = 14  # 20% N
            records.append(Sequence(f"w{slot}", codes))
        index = build_index(records, IndexParameters(interval_length=6))
        assert index.collection.num_sequences == 10
        # Wildcard-free windows still produce postings.
        assert index.pointer_count > 0


class TestMixedLengths:
    def test_collection_with_fragments_shorter_than_k(self):
        rng = np.random.default_rng(9)
        records = [
            Sequence("long0", rng.integers(0, 4, 400, dtype=np.uint8)),
            Sequence("tiny", rng.integers(0, 4, 4, dtype=np.uint8)),
            Sequence("long1", rng.integers(0, 4, 400, dtype=np.uint8)),
            Sequence("empty_ish", rng.integers(0, 4, 1, dtype=np.uint8)),
            Sequence("long2", rng.integers(0, 4, 400, dtype=np.uint8)),
        ]
        index = build_index(records, IndexParameters(interval_length=8))
        engine = PartitionedSearchEngine(
            index, MemorySequenceSource(records), coarse_cutoff=5
        )
        query = records[2].codes[100:250]
        report = engine.search(query)
        assert report.best().ordinal == 2

    def test_extreme_length_spread(self):
        collection = generate_collection(
            WorkloadSpec(num_families=3, family_size=3, num_background=30,
                         mean_length=600, length_spread=0.9, seed=10)
        )
        queries = make_family_queries(collection, 4, query_length=120, seed=4)
        assert run_pipeline(collection, queries) == 1.0


class TestAlternativeSchemesEndToEnd:
    def test_transition_scheme_through_the_whole_engine(self):
        collection = generate_collection(
            WorkloadSpec(num_families=4, family_size=3, num_background=30,
                         mean_length=400, seed=11)
        )
        records = list(collection.sequences)
        index = build_index(records, IndexParameters(interval_length=8))
        scheme = ScoringScheme(match=2, mismatch=-3, gap=-4, transition=-1)
        engine = PartitionedSearchEngine(
            index, MemorySequenceSource(records), scheme=scheme,
            coarse_cutoff=15,
        )
        exhaustive = ExhaustiveSearcher(records, scheme=scheme)
        queries = make_family_queries(collection, 3, query_length=150, seed=5)
        for case in queries:
            ours = engine.search(case.query, top_k=5)
            oracle = exhaustive.search(case.query, top_k=5)
            assert ours.best().ordinal == oracle.best().ordinal
            assert ours.best().score == oracle.best().score

    def test_heavy_gap_penalty_end_to_end(self):
        collection = generate_collection(
            WorkloadSpec(num_families=3, family_size=3, num_background=20,
                         mean_length=300, seed=12)
        )
        queries = make_family_queries(collection, 3, query_length=120, seed=6)
        scheme = ScoringScheme(match=1, mismatch=-2, gap=-8)
        assert run_pipeline(collection, queries, scheme=scheme) == 1.0
