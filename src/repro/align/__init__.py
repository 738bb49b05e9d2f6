"""Local alignment: scoring, vectorised/banded/reference DP, traceback."""

from repro.align.banded import banded_local_score
from repro.align.extension import UngappedExtension, extend_seed
from repro.align.kernel import (
    TargetImage,
    best_local_score,
    column_best_scores,
    segment_best_scores,
)
from repro.align.pairwise import MAX_TRACEBACK_CELLS, Alignment, local_align
from repro.align.reference import gotoh_score, smith_waterman_score
from repro.align.scoring import (
    SENTINEL_CODE,
    SENTINEL_SCORE,
    AffineScoringScheme,
    ScoringScheme,
)
from repro.align.statistics import (
    GumbelParameters,
    calibrate_gapped,
    ungapped_lambda,
)

__all__ = [
    "MAX_TRACEBACK_CELLS",
    "SENTINEL_CODE",
    "SENTINEL_SCORE",
    "AffineScoringScheme",
    "Alignment",
    "GumbelParameters",
    "ScoringScheme",
    "TargetImage",
    "UngappedExtension",
    "banded_local_score",
    "best_local_score",
    "calibrate_gapped",
    "column_best_scores",
    "extend_seed",
    "gotoh_score",
    "local_align",
    "segment_best_scores",
    "smith_waterman_score",
    "ungapped_lambda",
]
