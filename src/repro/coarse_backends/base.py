"""The coarse-phase backend contract.

A *coarse backend* owns one candidate-ranking technology end to end:
it builds a per-shard on-disk artefact at database-build time, opens
that artefact as an index-like reader, and produces the ranker the
engines call at query time.  Every shard directory carries exactly one
coarse artefact (named by the backend) next to its sequence store, and
the manifest records which backend built it in a ``"coarse"`` section::

    "coarse": {"backend": "signature",
               "params": {"false_positive_rate": 0.3, ...}}

A manifest without the section is an ``inverted`` database — every
pre-backend database opens unchanged.

The reader a backend opens must duck-type the slice of the
:class:`~repro.index.builder.IndexReader` surface the engines touch:
``params`` / ``collection`` / ``vocabulary_size`` / ``verify()`` /
``close()`` / ``set_instruments()``, plus a ``coarse_backend`` class
attribute naming the backend so the engines can dispatch without
consulting the manifest again.  The ranker must replicate the
:class:`~repro.search.coarse.CoarseRanker` contract:
``scores(query_codes, deadline)`` returning a dense float array, one
score per sequence of the reader (0 = no evidence), cooperating with
bounded deadlines; ``rank(query_codes, cutoff, deadline)`` =
:func:`~repro.search.results.top_candidates` of those scores; and a
``quarantined`` set of the units it skipped as corrupt under the
engine's ``on_corruption="skip"`` policy.  The engine reads
``scores`` only: it masks tombstones and cuts once across shards, so
a backend never sees them.

This module is import-light on purpose: the manifest layer
(:mod:`repro.sharding.manifest`, which also reads the ``"coarse"``
section) pulls the artefact-name mapping from here without loading any
backend implementation (those are resolved lazily by
:func:`repro.coarse_backends.get_backend`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Sequence as TypingSequence

from repro.errors import IndexFormatError

#: The backend a manifest without a ``"coarse"`` section implies.
DEFAULT_BACKEND = "inverted"

#: Every registered backend and the shard-directory artefact it owns.
ARTIFACT_NAMES = {
    "inverted": "intervals.rpix",
    "signature": "signatures.rpsg",
}

BACKEND_NAMES = tuple(ARTIFACT_NAMES)


def artifact_name(backend: str) -> str:
    """The coarse artefact's file name inside a shard directory.

    Raises:
        IndexFormatError: if the backend name is unknown.
    """
    try:
        return ARTIFACT_NAMES[backend]
    except KeyError:
        raise IndexFormatError(
            f"unknown coarse backend {backend!r}; known: "
            f"{sorted(ARTIFACT_NAMES)}"
        ) from None


def coarse_section(
    backend: str = DEFAULT_BACKEND, params: dict | None = None
) -> dict:
    """A validated, fully-defaulted ``coarse`` manifest section.

    This is the one entry point front ends (``Database.create``, the
    CLI) use to turn user-supplied knobs into the canonical section
    every build/open/repair path then passes around verbatim.

    Raises:
        IndexFormatError: if the backend name is unknown.
        IndexParameterError: if a backend parameter is out of range.
    """
    from repro.coarse_backends import get_backend

    resolved = get_backend(backend)
    return {
        "backend": resolved.name,
        "params": resolved.normalise_params(params),
    }


class CoarseBackend(ABC):
    """One coarse-ranking technology: build, open, rank.

    Attributes:
        name: the registered backend name the manifest records.
        artifact: the artefact file name inside a shard directory.
    """

    name: str
    artifact: str

    @abstractmethod
    def normalise_params(self, params: dict | None) -> dict:
        """Validated parameters with defaults applied.

        Raises:
            IndexParameterError: if a parameter is unknown or out of
                range.
        """

    @abstractmethod
    def build_artifact(
        self,
        directory: Path,
        records: TypingSequence,
        params,
        backend_params: dict | None = None,
    ) -> int:
        """Build the shard's coarse artefact; returns bytes written.

        ``params`` is the shared
        :class:`~repro.index.builder.IndexParameters` (interval length
        and stride shape every backend's evidence); ``backend_params``
        are this backend's own knobs, already normalised.
        """

    @abstractmethod
    def open_artifact(self, directory: Path):
        """Open the shard's coarse artefact as an index-like reader.

        Raises:
            IndexFormatError: if the artefact is missing or not this
                backend's format.
            CorruptionError: if an eager integrity check fails.
        """

    @abstractmethod
    def make_ranker(
        self, index, scorer: str = "count", on_corruption: str = "raise"
    ):
        """The query-time ranker over an opened reader.

        Raises:
            SearchError: if the scorer (or another engine option) is
                not supported by this backend.
        """
