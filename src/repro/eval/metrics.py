"""Retrieval-effectiveness metrics.

The paper measures a partitioned engine against an exhaustive-search
oracle; these are the standard IR measures that comparison uses —
recall/precision at a cutoff, average precision, and the 11-point
interpolated recall-precision curve.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ReproError


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 1:
        raise ReproError(f"cutoff must be >= 1, got {cutoff}")


def recall_at(
    ranking: Sequence[int], relevant: Iterable[int], cutoff: int
) -> float:
    """Fraction of relevant items appearing in the first ``cutoff`` ranks."""
    _check_cutoff(cutoff)
    relevant_set = set(relevant)
    if not relevant_set:
        return 0.0
    found = sum(1 for item in ranking[:cutoff] if item in relevant_set)
    return found / len(relevant_set)


def oracle_recall_at(
    ranking_scores: Sequence[float],
    oracle_scores: Sequence[float],
    cutoff: int,
) -> float:
    """Recall against an exhaustive oracle, tolerant of boundary ties.

    When the oracle's ``cutoff``-th answer sits inside a group of
    equal-scoring documents, *which* group members make the top
    ``cutoff`` is arbitrary — any of them is an equally good answer.
    So instead of set membership, an answer counts as found when its
    score reaches the oracle's ``cutoff``-th score: the fraction of the
    first ``cutoff`` ranked answers scoring at least that threshold.
    An engine returning fewer than ``cutoff`` answers is penalised for
    the empty slots.

    Raises:
        ReproError: if ``cutoff`` < 1 or the oracle supplied fewer than
            ``cutoff`` scores.
    """
    _check_cutoff(cutoff)
    if len(oracle_scores) < cutoff:
        raise ReproError(
            f"oracle supplied {len(oracle_scores)} scores but the cutoff "
            f"is {cutoff}"
        )
    threshold = sorted(oracle_scores, reverse=True)[cutoff - 1]
    found = sum(
        1 for score in ranking_scores[:cutoff] if score >= threshold
    )
    return found / cutoff


def average_precision(
    ranking: Sequence[int], relevant: Iterable[int]
) -> float:
    """Mean of precision values at each relevant item's rank."""
    relevant_set = set(relevant)
    if not relevant_set:
        return 0.0
    found = 0
    precision_sum = 0.0
    for rank, item in enumerate(ranking, start=1):
        if item in relevant_set:
            found += 1
            precision_sum += found / rank
    return precision_sum / len(relevant_set)


def recall_precision_points(
    ranking: Sequence[int], relevant: Iterable[int]
) -> list[tuple[float, float]]:
    """(recall, precision) at every rank where a relevant item appears."""
    relevant_set = set(relevant)
    if not relevant_set:
        return []
    points = []
    found = 0
    for rank, item in enumerate(ranking, start=1):
        if item in relevant_set:
            found += 1
            points.append((found / len(relevant_set), found / rank))
    return points


def eleven_point_interpolated(
    ranking: Sequence[int], relevant: Iterable[int]
) -> list[float]:
    """Interpolated precision at recall 0.0, 0.1, ..., 1.0.

    Interpolated precision at recall level r is the maximum precision
    at any recall >= r (the TREC convention).
    """
    points = recall_precision_points(ranking, relevant)
    levels = [level / 10.0 for level in range(11)]
    interpolated = []
    for level in levels:
        candidates = [
            precision for recall, precision in points if recall >= level - 1e-12
        ]
        interpolated.append(max(candidates, default=0.0))
    return interpolated


def mean_eleven_point(curves: Sequence[Sequence[float]]) -> list[float]:
    """Average several 11-point curves level by level.

    Raises:
        ReproError: if the list is empty or a curve is malformed.
    """
    if not curves:
        raise ReproError("no curves to average")
    if any(len(curve) != 11 for curve in curves):
        raise ReproError("an 11-point curve must have 11 levels")
    return [
        sum(curve[level] for curve in curves) / len(curves)
        for level in range(11)
    ]


def ranking_overlap(
    first: Sequence[int], second: Sequence[int], cutoff: int
) -> float:
    """Jaccard-style overlap of two rankings' first ``cutoff`` items."""
    _check_cutoff(cutoff)
    first_set = set(first[:cutoff])
    second_set = set(second[:cutoff])
    union = first_set | second_set
    if not union:
        return 1.0
    return len(first_set & second_set) / len(union)
