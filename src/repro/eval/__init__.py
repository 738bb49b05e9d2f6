"""Effectiveness oracles and IR metrics."""

from repro.eval.ground_truth import (
    GroundTruth,
    QueryTruth,
    compute_ground_truth,
)
from repro.eval.metrics import (
    average_precision,
    eleven_point_interpolated,
    mean_eleven_point,
    ranking_overlap,
    oracle_recall_at,
    recall_at,
    recall_precision_points,
)

__all__ = [
    "GroundTruth",
    "QueryTruth",
    "average_precision",
    "compute_ground_truth",
    "eleven_point_interpolated",
    "mean_eleven_point",
    "ranking_overlap",
    "oracle_recall_at",
    "recall_at",
    "recall_precision_points",
]
