"""Shared, cached workload construction for the benchmark suite.

Collections and indexes are expensive to build, so everything here is
memoised: the pytest-benchmark targets and the table harness share one
set of artefacts per process.
"""

from __future__ import annotations

from functools import lru_cache

from repro.index.builder import IndexParameters, InvertedIndex, build_index
from repro.index.store import MemorySequenceSource
from repro.search.engine import PartitionedSearchEngine
from repro.search.exhaustive import ExhaustiveSearcher
from repro.sequences.mutate import MutationModel
from repro.sequences.record import Sequence
from repro.workloads.queries import QueryCase, make_family_queries
from repro.workloads.synthetic import WorkloadSpec, generate_collection

#: The default evaluation collection: 1200 sequences, ~1 Mb — scaled
#: down from the paper's GenBank subsets (see DESIGN.md) but large
#: enough that every effect has room to show.
BASE_FAMILIES = 30
BASE_FAMILY_SIZE = 4
BASE_BACKGROUND = 1080
BASE_MEAN_LENGTH = 800
BASE_SEED = 1996

#: Query shape shared by the query-evaluation experiments.
QUERY_LENGTH = 200
NUM_QUERIES = 10


@lru_cache(maxsize=None)
def base_collection():
    """The default planted-family collection."""
    return generate_collection(
        WorkloadSpec(
            num_families=BASE_FAMILIES,
            family_size=BASE_FAMILY_SIZE,
            num_background=BASE_BACKGROUND,
            mean_length=BASE_MEAN_LENGTH,
            seed=BASE_SEED,
        )
    )


@lru_cache(maxsize=None)
def base_records() -> tuple[Sequence, ...]:
    return base_collection().sequences


@lru_cache(maxsize=None)
def base_source() -> MemorySequenceSource:
    return MemorySequenceSource(list(base_records()))


@lru_cache(maxsize=None)
def base_queries() -> tuple[QueryCase, ...]:
    return tuple(
        make_family_queries(
            base_collection(), NUM_QUERIES, query_length=QUERY_LENGTH, seed=7
        )
    )


@lru_cache(maxsize=None)
def diverged_queries(percent: int) -> tuple[QueryCase, ...]:
    """Query sets whose windows carry extra divergence (E7)."""
    mutation = MutationModel(percent / 100.0, 0.01, 0.01)
    return tuple(
        make_family_queries(
            base_collection(),
            NUM_QUERIES,
            query_length=QUERY_LENGTH,
            extra_mutation=mutation,
            seed=7,
        )
    )


@lru_cache(maxsize=None)
def base_index(interval_length: int = 8, stride: int = 1) -> InvertedIndex:
    """A (cached) index over the base collection."""
    return build_index(
        list(base_records()),
        IndexParameters(interval_length=interval_length, stride=stride),
    )


@lru_cache(maxsize=None)
def base_engine(coarse_cutoff: int = 100) -> PartitionedSearchEngine:
    return PartitionedSearchEngine(
        base_index(), base_source(), coarse_cutoff=coarse_cutoff
    )


@lru_cache(maxsize=None)
def frames_engine(coarse_cutoff: int = 100) -> PartitionedSearchEngine:
    """The frame-restricted fine-phase variant (ablation A4)."""
    return PartitionedSearchEngine(
        base_index(),
        base_source(),
        coarse_cutoff=coarse_cutoff,
        fine_mode="frames",
    )


@lru_cache(maxsize=None)
def base_exhaustive() -> ExhaustiveSearcher:
    return ExhaustiveSearcher(base_source())


@lru_cache(maxsize=None)
def scaled_collection(num_sequences: int):
    """Collections of increasing size for the E3 scaling figure.

    Family structure is kept proportional so the query workload's
    difficulty is constant as the collection grows.
    """
    families = max(2, num_sequences // 25)
    return generate_collection(
        WorkloadSpec(
            num_families=families,
            family_size=4,
            num_background=num_sequences - 4 * families,
            mean_length=BASE_MEAN_LENGTH,
            seed=BASE_SEED + num_sequences,
        )
    )


@lru_cache(maxsize=None)
def scaled_setup(num_sequences: int):
    """(records, engine, exhaustive, queries) for one E3 size point."""
    collection = scaled_collection(num_sequences)
    records = list(collection.sequences)
    source = MemorySequenceSource(records)
    index = build_index(records, IndexParameters(interval_length=8))
    engine = PartitionedSearchEngine(index, source, coarse_cutoff=50)
    exhaustive = ExhaustiveSearcher(source)
    queries = make_family_queries(
        collection, 5, query_length=QUERY_LENGTH, seed=3
    )
    return records, engine, exhaustive, queries


def document_gap_stream(index: InvertedIndex) -> list[int]:
    """Every document gap the index's doc codec encodes, in order (E2)."""
    gaps: list[int] = []
    for interval in index.interval_ids():
        _, docs, _ = index.read_lists([interval])
        previous = -1
        for doc in docs.tolist():
            gaps.append(doc - previous - 1)
            previous = doc
    return gaps
