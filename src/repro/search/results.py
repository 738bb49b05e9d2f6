"""Result types shared by every search engine, and the fine ranking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import SearchError


@dataclass(frozen=True)
class CoarseCandidate:
    """A sequence selected by the coarse (index) phase."""

    ordinal: int
    coarse_score: float


def top_candidates(scores: np.ndarray, cutoff: int) -> list[CoarseCandidate]:
    """The coarse cut: the ``cutoff`` best positive ``scores``, best
    first, as candidates whose ordinal is the score's index.

    The order is total (score desc, ordinal asc), so tied candidates at
    the cutoff never depend on the backend or the partitioning.  Zero
    scores are never returned, so the list may be shorter than
    ``cutoff``.

    Raises:
        SearchError: if ``cutoff`` is not positive.
    """
    if cutoff < 1:
        raise SearchError(f"cutoff must be >= 1, got {cutoff}")
    positive = np.flatnonzero(scores > 0)
    order = np.lexsort((positive, -scores[positive]))[:cutoff]
    return [
        CoarseCandidate(int(ordinal), float(scores[ordinal]))
        for ordinal in positive[order]
    ]


@dataclass(frozen=True)
class SearchHit:
    """A ranked answer: one collection sequence with its scores.

    Attributes:
        ordinal: the sequence's position in the collection.
        identifier: the sequence's name.
        score: fine (local alignment) score; the ranking key.
        coarse_score: the index-phase score that selected the sequence
            (0.0 for engines without a coarse phase).
    """

    ordinal: int
    identifier: str
    score: int
    coarse_score: float = 0.0
    #: ``"+"`` when the query matched as given, ``"-"`` when its
    #: reverse complement matched better (both-strand search only).
    strand: str = "+"
    #: Expected chance alignments at this score over the collection;
    #: ``None`` unless the engine was given Gumbel parameters.
    evalue: float | None = None


def fine_order(hit: SearchHit) -> tuple:
    """The fine ranking's sort key: best score first, ties by coarse
    score then ordinal, so rankings are deterministic."""
    return (-hit.score, -hit.coarse_score, hit.ordinal)


def hits_from_scores(
    candidates: Sequence,
    scores: Iterable,
    min_score: int,
    identifier: Callable[[int], str],
    ordinals: Iterable[int] | None = None,
) -> list[SearchHit]:
    """Rank aligned candidates: one hit per candidate scoring at least
    ``min_score``, sorted by :func:`fine_order`.

    ``candidates`` are anything with ``ordinal`` and ``coarse_score``,
    ``scores`` their fine scores in the same order.  ``identifier(i)``
    names the ``i``-th candidate's record, and its hit carries
    ``ordinals[i]`` (default: the candidate's own ordinal).
    """
    if ordinals is None:
        ordinals = [candidate.ordinal for candidate in candidates]
    hits = [
        SearchHit(
            ordinal=ordinal,
            identifier=identifier(i),
            score=int(score),
            coarse_score=candidate.coarse_score,
        )
        for i, (candidate, ordinal, score) in enumerate(
            zip(candidates, ordinals, scores)
        )
        if int(score) >= min_score
    ]
    hits.sort(key=fine_order)
    return hits


@dataclass(frozen=True)
class SearchReport:
    """Everything one query evaluation produced.

    Attributes:
        query_identifier: the query's name.
        hits: ranked answers, best first.
        candidates_examined: sequences the fine phase actually scanned
            (equals the collection size for exhaustive engines); a
            dropped shard's share, quarantined records and chunks a
            deadline cut off are not counted.  Under
            both-strand search this is the total fine-phase work: the
            forward and reverse-complement candidate counts summed.
        coarse_seconds / fine_seconds: wall-clock split of the two
            phases (coarse is 0.0 for exhaustive engines).
    """

    query_identifier: str
    hits: list[SearchHit] = field(default_factory=list)
    candidates_examined: int = 0
    coarse_seconds: float = 0.0
    fine_seconds: float = 0.0
    #: Coarse units the engine has quarantined as corrupt so far:
    #: posting lists of the inverted backend and blocks of the
    #: signature backend (cumulative over the engine's lifetime; only
    #: non-zero under ``on_corruption="skip"``).
    quarantined_intervals: int = 0
    #: Candidate sequences skipped because their store records failed
    #: integrity checks (cumulative, as above).
    quarantined_sequences: int = 0
    #: True when the engine answered this query in degraded mode,
    #: scanning every live sequence, because an index was unusable.
    degraded: bool = False
    #: True when the query's deadline expired before evaluation
    #: finished: the hits are a partial ranking over the work completed
    #: inside the budget (an expired deadline never raises).
    deadline_expired: bool = False
    #: Shard slots whose evidence is missing from this report because
    #: the shard failed and resilience dropped it (engines with a
    #: :class:`~repro.search.resilience.ShardResilience` only).
    shards_degraded: tuple[int, ...] = ()
    #: The database generation that answered: every hit comes from
    #: this one collection (0 for an engine built outside a
    #: :class:`~repro.database.Database`, or a never-mutated one).
    generation: int = 0

    @property
    def partial(self) -> bool:
        """True when any part of the collection went unexamined —
        deadline expiry or degraded shards."""
        return self.deadline_expired or bool(self.shards_degraded)

    @property
    def total_seconds(self) -> float:
        """Total query evaluation time."""
        return self.coarse_seconds + self.fine_seconds

    def ordinals(self) -> list[int]:
        """Answer ordinals in rank order."""
        return [hit.ordinal for hit in self.hits]

    def best(self) -> SearchHit | None:
        """The top answer, or None when there are no hits."""
        return self.hits[0] if self.hits else None
