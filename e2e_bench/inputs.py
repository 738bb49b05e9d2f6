"""Inputs made from ``--seed``: the corpus and the queries with their
known answers.  The program under test only ever sees these records and
query sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import Sequence, WorkloadSpec, generate_collection
from repro.workloads.queries import (
    QueryCase,
    make_background_queries,
    make_family_queries,
)
from repro.workloads.synthetic import SyntheticCollection

from e2e_bench.spec import QUERY_LENGTH, Workload


@dataclass
class Case:
    """One query and what a correct answer to it looks like.

    ``kind`` is ``"family"`` (top hit must be a family member; recall is
    the share of ``relevant`` in the top k) or ``"exact"`` (the query is
    a substring of ``source``, which must come first with a score equal
    to the query length).  Identifiers, not ordinals, name the answers,
    so the same case checks an engine, a live database and an HTTP
    response.  An exact case whose source was since deleted only has to
    not return it (``Checker`` enforces that for every search).
    ``scored`` is false for the probes ``live_mixed`` cuts from records
    it just wrote: they are checked, but how many of them a time-boxed
    run reaches varies, so they stay out of ``recall_at_k``.
    """

    query: Sequence
    kind: str
    source: str
    relevant: frozenset[str]
    scored: bool = True


def make_corpus(shape: dict, seed: int) -> SyntheticCollection:
    return generate_collection(WorkloadSpec(seed=seed, **shape))


def _cases(
    collection: SyntheticCollection, cases: list[QueryCase], kind: str
) -> list[Case]:
    identifier = [record.identifier for record in collection.sequences]
    return [
        Case(
            case.query,
            kind,
            identifier[case.source_ordinal],
            frozenset(identifier[ordinal] for ordinal in case.relevant),
        )
        for case in cases
    ]


def make_cases(
    collection: SyntheticCollection, workload: Workload, seed: int
) -> list[Case]:
    """Family and background queries, interleaved in a seeded order so
    any prefix of the list is an unbiased sample of the mix."""
    cases = _cases(
        collection,
        make_family_queries(
            collection, workload.family_queries, QUERY_LENGTH, seed=seed + 1
        ),
        "family",
    )
    if workload.background_queries:
        cases += _cases(
            collection,
            make_background_queries(
                collection,
                workload.background_queries,
                QUERY_LENGTH,
                seed=seed + 2,
            ),
            "exact",
        )
    order = np.random.default_rng(seed + 3).permutation(len(cases))
    return [cases[int(slot)] for slot in order]


def make_ingest_batches(
    mean_length: int, batches: int, batch_size: int, seed: int
) -> list[list[Sequence]]:
    """Records for ``live_mixed`` to ingest, uniquely named ``ingNNNN``."""
    fresh = generate_collection(
        WorkloadSpec(
            num_families=0,
            num_background=batches * batch_size,
            mean_length=mean_length,
            seed=seed + 4,
        )
    ).sequences
    records = [
        Sequence(f"ing{number:04d}", record.codes)
        for number, record in enumerate(fresh)
    ]
    return [
        records[start : start + batch_size]
        for start in range(0, len(records), batch_size)
    ]


def exact_case(
    record: Sequence, rng: np.random.Generator, number: int
) -> Case:
    """An unscored probe cut verbatim from ``record``."""
    length = min(QUERY_LENGTH, len(record))
    start = int(rng.integers(0, len(record) - length + 1))
    return Case(
        Sequence(f"x{number:04d}_{record.identifier}",
                 record.codes[start : start + length].copy()),
        "exact",
        record.identifier,
        frozenset({record.identifier}),
        scored=False,
    )
