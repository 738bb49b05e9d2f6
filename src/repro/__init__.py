"""repro — partitioned interval-index search for nucleotide databases.

A reproduction of Williams & Zobel, *Indexing Nucleotide Databases for
Fast Query Evaluation* (EDBT 1996): a compressed inverted index of
fixed-length substrings ("intervals") selects candidate sequences,
which are then ranked by local alignment — several times faster than
exhaustive scanning at a small cost in accuracy.

Quickstart::

    from repro import (
        PartitionedSearchEngine, build_index, MemorySequenceSource,
        Sequence,
    )

    collection = [Sequence.from_text("s1", "ACGT..."), ...]
    index = build_index(collection)
    engine = PartitionedSearchEngine(
        index, MemorySequenceSource(collection), coarse_cutoff=100
    )
    report = engine.search(Sequence.from_text("q", "ACGTT..."))
    for hit in report.hits:
        print(hit.identifier, hit.score)

There is one engine: ``PartitionedSearchEngine.over_shards([(index,
source), ...], tombstones=..., resilience=...)`` evaluates any number
of shards with hit-for-hit identical answers, and
:class:`Database` builds exactly that over its directory.
"""

from repro.align import (
    Alignment,
    ScoringScheme,
    best_local_score,
    local_align,
)
from repro.coarse_backends import get_backend
from repro.database import AutoCompactPolicy, Database, VerificationReport
from repro.errors import CorruptionError, ReproError, StorageError
from repro.index import (
    DiskIndex,
    IndexParameters,
    InvertedIndex,
    MemorySequenceSource,
    SequenceStore,
    build_index,
    collect_statistics,
    read_index,
    read_store,
    stop_most_frequent,
    write_index,
    write_store,
)
from repro.search import (
    BlastLikeSearcher,
    Deadline,
    ExhaustiveSearcher,
    FastaLikeSearcher,
    PartitionedSearchEngine,
    RetryPolicy,
    SearchHit,
    SearchReport,
    ShardResilience,
)
from repro.serving import SearchServer, ServerConfig
from repro.sequences import MutationModel, Sequence, read_fasta, write_fasta
from repro.sharding import plan_shards
from repro.workloads import (
    WorkloadSpec,
    generate_collection,
    make_family_queries,
)

__version__ = "1.0.0"

__all__ = [
    "Alignment",
    "AutoCompactPolicy",
    "CorruptionError",
    "Database",
    "StorageError",
    "VerificationReport",
    "BlastLikeSearcher",
    "Deadline",
    "DiskIndex",
    "ExhaustiveSearcher",
    "FastaLikeSearcher",
    "IndexParameters",
    "InvertedIndex",
    "MemorySequenceSource",
    "MutationModel",
    "PartitionedSearchEngine",
    "ReproError",
    "RetryPolicy",
    "ScoringScheme",
    "SearchHit",
    "SearchReport",
    "SearchServer",
    "Sequence",
    "SequenceStore",
    "ServerConfig",
    "ShardResilience",
    "WorkloadSpec",
    "best_local_score",
    "build_index",
    "collect_statistics",
    "generate_collection",
    "get_backend",
    "local_align",
    "make_family_queries",
    "plan_shards",
    "read_fasta",
    "read_index",
    "read_store",
    "stop_most_frequent",
    "write_fasta",
    "write_index",
    "write_store",
]
