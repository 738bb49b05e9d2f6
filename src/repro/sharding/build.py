"""Parallel shard construction.

Each shard is an independent build — its own coarse artefact over its
own slice of the collection, its own sequence store, its own manifest —
so shards build in parallel worker *processes* with no shared state.
The top-level manifest is written last, after every shard has landed,
so an interrupted build leaves a directory :meth:`Database.open`
rejects rather than a silently partial database (the same write-order
discipline the single-shard path uses).

Determinism: a shard's bytes depend only on its records and parameters,
never on worker scheduling, so a ``workers=4`` build is bit-identical
to the same build with ``workers=1``.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Sequence as TypingSequence

from repro.coarse_backends import get_backend
from repro.coarse_backends.base import coarse_section
from repro.errors import IndexParameterError
from repro.index.builder import IndexParameters
from repro.index.store import write_store
from repro.sequences.record import Sequence
from repro.sharding.manifest import (
    STORE_NAME,
    LiveState,
    ShardLayoutEntry,
    directory_entry,
    write_layout,
)
from repro.sharding.planner import ShardSpec

_LOG = logging.getLogger(__name__)


def build_shard_directory(
    directory: str | Path,
    records: TypingSequence[Sequence],
    params: IndexParameters | None = None,
    coding: str = "direct",
    coarse: dict | None = None,
) -> ShardLayoutEntry:
    """Build one classic database: coarse artefact + store + manifest.

    The directory is created if needed and existing artefacts are
    overwritten (a re-run after an interrupted build converges).
    ``coarse`` selects and parameterises the coarse backend (``None``
    builds the inverted default).  Returns the directory's ``""``
    layout entry.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    params = params or IndexParameters()
    coarse = coarse or coarse_section()
    index_bytes = get_backend(coarse["backend"]).build_artifact(
        directory, records, params, coarse["params"]
    )
    store_bytes = write_store(records, directory / STORE_NAME, coding)
    entry = directory_entry(
        directory, records, index_bytes, store_bytes, coarse
    )
    write_layout(directory, LiveState(coding, params, coarse, (entry,)))
    return entry


def _build_shard_task(
    job: tuple[str, list[Sequence], IndexParameters, str, dict | None]
) -> ShardLayoutEntry:
    """Process-pool entry point (module level, so it pickles)."""
    directory, records, params, coding, coarse = job
    return build_shard_directory(directory, records, params, coding, coarse)


def build_shards(
    directory: Path,
    names: TypingSequence[str],
    plan: TypingSequence[ShardSpec],
    records: TypingSequence[Sequence],
    params: IndexParameters,
    coding: str,
    coarse: dict | None,
    workers: int,
) -> tuple[ShardLayoutEntry, ...]:
    """Build each planned shard under ``directory / name`` (on up to
    ``workers`` processes); returns their layout entries."""
    jobs = [
        (
            str(directory / name),
            list(records[spec.base : spec.stop]),
            params,
            coding,
            coarse,
        )
        for name, spec in zip(names, plan)
    ]
    workers = min(workers, len(jobs))
    if workers == 1:
        built = [_build_shard_task(job) for job in jobs]
    else:
        _LOG.info(
            "building %d shards with %d worker processes", len(jobs), workers
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            built = list(pool.map(_build_shard_task, jobs))
    return tuple(
        replace(entry, name=name, base=spec.base)
        for name, spec, entry in zip(names, plan, built)
    )


def build_sharded_database(
    directory: str | Path,
    records: TypingSequence[Sequence],
    plan: TypingSequence[ShardSpec],
    params: IndexParameters | None = None,
    coding: str = "direct",
    workers: int = 1,
    coarse: dict | None = None,
) -> LiveState:
    """Build every planned shard (in parallel) and the top manifest.

    Args:
        directory: the database directory (must already exist).
        records: the full collection, in global ordinal order.
        plan: contiguous shard ranges (see
            :func:`repro.sharding.planner.plan_shards`).
        params: index shape shared by every shard.
        coding: sequence-store payload coding.
        workers: build processes; 1 builds the shards in-process.

    Returns:
        The layout the top-level (sharded) manifest records, already
        written to disk.

    Raises:
        IndexParameterError: if ``workers`` < 1 or the plan is empty.
    """
    if workers < 1:
        raise IndexParameterError(f"workers must be >= 1, got {workers}")
    if not plan:
        raise IndexParameterError("empty shard plan")
    directory = Path(directory)
    params = params or IndexParameters()
    coarse = coarse or coarse_section()
    entries = build_shards(
        directory,
        [spec.name for spec in plan],
        plan,
        records,
        params,
        coding,
        coarse,
        workers,
    )
    state = LiveState(coding, params, coarse, entries)
    write_layout(directory, state)
    return state
