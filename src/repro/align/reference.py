"""Scalar reference aligners.

Straight-from-the-textbook dynamic programming, kept deliberately
simple: these are the oracles the vectorised kernel and the banded
aligner are property-tested against, not production paths.
"""

from __future__ import annotations

from repro.align.scoring import AffineScoringScheme, ScoringScheme


def smith_waterman_score(query, target, scheme: ScoringScheme) -> int:
    """Best local-alignment score with linear gap penalties.

    Args:
        query, target: code arrays (anything indexable of ints).
        scheme: the linear scoring scheme.

    Returns:
        The maximum cell of the Smith-Waterman matrix (>= 0).
    """
    return max(smith_waterman_column_best(query, target, scheme), default=0)


def smith_waterman_column_best(query, target, scheme: ScoringScheme) -> list[int]:
    """The maximum Smith-Waterman cell in each target column (linear gaps).

    The spec of ``repro.align.kernel.column_best_scores``.
    """
    query = list(int(code) for code in query)
    target = list(int(code) for code in target)
    previous = [0] * (len(target) + 1)
    best = [0] * len(target)
    for query_code in query:
        current = [0] * (len(target) + 1)
        for column in range(1, len(target) + 1):
            score = scheme.score_pair(query_code, target[column - 1])
            value = max(
                0,
                previous[column - 1] + score,
                previous[column] + scheme.gap,
                current[column - 1] + scheme.gap,
            )
            current[column] = value
            if value > best[column - 1]:
                best[column - 1] = value
        previous = current
    return best


def gotoh_score(query, target, scheme: AffineScoringScheme) -> int:
    """Best local-alignment score with affine gap penalties (Gotoh).

    Three-state DP: H (match/mismatch), E (gap in query), F (gap in
    target).  ``gap_open`` is charged on the first base of a gap,
    ``gap_extend`` on each subsequent one.
    """
    query = list(int(code) for code in query)
    target = list(int(code) for code in target)
    width = len(target) + 1
    minus_inf = -(1 << 30)
    h_previous = [0] * width
    e_previous = [minus_inf] * width
    best = 0
    for query_code in query:
        h_current = [0] * width
        e_current = [minus_inf] * width
        f_value = minus_inf
        for column in range(1, width):
            e_current[column] = max(
                h_previous[column] + scheme.gap_open,
                e_previous[column] + scheme.gap_extend,
            )
            f_value = max(
                h_current[column - 1] + scheme.gap_open,
                f_value + scheme.gap_extend,
            )
            score = scheme.score_pair(query_code, target[column - 1])
            value = max(
                0,
                h_previous[column - 1] + score,
                e_current[column],
                f_value,
            )
            h_current[column] = value
            if value > best:
                best = value
        h_previous = h_current
        e_previous = e_current
    return best
