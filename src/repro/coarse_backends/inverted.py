"""The inverted-index coarse backend (the default).

A thin adapter: building, opening, and ranking delegate verbatim to
the pre-backend code paths (:func:`~repro.index.builder.build_index`,
:class:`~repro.index.storage.DiskIndex`,
:class:`~repro.search.coarse.CoarseRanker`), so a database built and
searched through this backend is hit-for-hit — and on disk
byte-for-byte — identical to one built before the backend seam
existed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence as TypingSequence

from repro.coarse_backends.base import ARTIFACT_NAMES, CoarseBackend
from repro.errors import IndexParameterError
from repro.index.builder import IndexParameters, build_index
from repro.index.storage import DiskIndex, write_index
from repro.search.coarse import CoarseRanker
from repro.sequences.record import Sequence


class InvertedBackend(CoarseBackend):
    name = "inverted"
    artifact = ARTIFACT_NAMES["inverted"]

    def normalise_params(self, params: dict | None) -> dict:
        if params:
            raise IndexParameterError(
                "the inverted backend takes no backend parameters, got "
                f"{sorted(params)}"
            )
        return {}

    def build_artifact(
        self,
        directory: Path,
        records: TypingSequence[Sequence],
        params: IndexParameters,
        backend_params: dict | None = None,
    ) -> int:
        self.normalise_params(backend_params)
        index = build_index(records, params)
        return write_index(index, Path(directory) / self.artifact)

    def open_artifact(self, directory: Path) -> DiskIndex:
        return DiskIndex(Path(directory) / self.artifact)

    def make_ranker(
        self, index, scorer: str = "count", on_corruption: str = "raise"
    ) -> CoarseRanker:
        return CoarseRanker(index, scorer, on_corruption=on_corruption)
