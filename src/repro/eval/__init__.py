"""Effectiveness oracles, IR metrics, and timing helpers."""

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
from repro.eval.timing import Timer, TimingSummary

__all__ = [
    "GroundTruth",
    "QueryTruth",
    "Timer",
    "TimingSummary",
    "average_precision",
    "compute_ground_truth",
    "eleven_point_interpolated",
    "mean_eleven_point",
    "ranking_overlap",
    "oracle_recall_at",
    "recall_at",
    "recall_precision_points",
]
