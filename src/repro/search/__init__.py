"""Search engines: partitioned (coarse + fine) and exhaustive baselines."""

from repro.search.blast_like import BlastLikeSearcher
from repro.search.deadline import (
    NO_DEADLINE,
    Deadline,
    ensure_deadline,
)
from repro.search.resilience import (
    CircuitBreaker,
    RetryPolicy,
    ShardResilience,
    ShardTimeout,
    ShardUnavailable,
)
from repro.search.coarse import SCORERS, CoarseRanker
from repro.search.engine import FINE_MODES, PartitionedSearchEngine
from repro.search.exhaustive import ExhaustiveSearcher
from repro.search.fasta_like import FastaLikeSearcher
from repro.search.fine import FineSearcher
from repro.search.frames import FrameLocaliser
from repro.search.results import (
    CoarseCandidate,
    SearchHit,
    SearchReport,
    top_candidates,
)
from repro.search.seeds import SeedTable, query_seed_groups

__all__ = [
    "FINE_MODES",
    "NO_DEADLINE",
    "SCORERS",
    "BlastLikeSearcher",
    "CircuitBreaker",
    "CoarseCandidate",
    "CoarseRanker",
    "Deadline",
    "ExhaustiveSearcher",
    "FastaLikeSearcher",
    "FineSearcher",
    "FrameLocaliser",
    "PartitionedSearchEngine",
    "RetryPolicy",
    "SearchHit",
    "SearchReport",
    "SeedTable",
    "ShardResilience",
    "ShardTimeout",
    "ShardUnavailable",
    "ensure_deadline",
    "query_seed_groups",
    "top_candidates",
]
