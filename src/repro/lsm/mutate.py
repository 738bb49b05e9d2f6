"""Ingest, delete, and compaction over a live database directory.

Every mutation follows the same discipline: build any new files into
fresh directories first, then commit by atomically replacing the
top-level manifest with one stamped ``generation + 1``.  A crash at any
point before the manifest rename leaves the old generation fully
intact (the fresh directories become orphans); a crash after it leaves
the new generation fully intact (the superseded directories become
garbage that :func:`cleanup_unreferenced` reclaims).  There is no
intermediate state a reader can observe.
"""

from __future__ import annotations

import logging
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence as TypingSequence

from repro.coarse_backends.base import ARTIFACT_NAMES
from repro.errors import IndexParameterError
from repro.index.store import SequenceStore
from repro.sequences.record import Sequence
from repro.sharding.build import build_shard_directory, build_shards
from repro.sharding.manifest import (
    STORE_NAME,
    LiveState,
    compacted_shard_name,
    delta_name,
    entry_directory,
    load_manifest,
    orphan_directories,
    read_layout,
    write_layout,
)
from repro.sharding.planner import plan_shards

_LOG = logging.getLogger(__name__)


def append_delta(
    directory: str | Path, records: TypingSequence[Sequence]
) -> LiveState:
    """Ingest ``records`` as one new delta shard.

    The delta is a complete checksummed v2 database of its own, built
    under ``delta-g<generation>``; the manifest swap that references it
    is the last write.  Re-running after a crash overwrites the orphan
    directory and converges.

    Returns the committed :class:`LiveState`.

    Raises:
        IndexParameterError: if ``records`` is empty.
    """
    if not records:
        raise IndexParameterError("no records to ingest")
    directory = Path(directory)
    state = read_layout(load_manifest(directory))
    generation = state.generation + 1
    name = delta_name(generation)
    entry = build_shard_directory(
        directory / name, list(records), state.params, state.coding,
        state.coarse,
    )
    committed = replace(
        state,
        deltas=state.deltas
        + (replace(entry, name=name, base=state.stored_sequences),),
        generation=generation,
    )
    write_layout(directory, committed)
    return committed


def tombstone(
    directory: str | Path, stored_ordinals: Iterable[int]
) -> LiveState:
    """Mark stored ordinals deleted; purely a manifest swap.

    Returns the committed :class:`LiveState`.

    Raises:
        IndexParameterError: if no ordinals are given, an ordinal is
            out of range, or an ordinal is already tombstoned.
    """
    directory = Path(directory)
    state = read_layout(load_manifest(directory))
    doomed = sorted(set(int(ordinal) for ordinal in stored_ordinals))
    if not doomed:
        raise IndexParameterError("no records to delete")
    stored = state.stored_sequences
    existing = set(state.tombstones)
    for ordinal in doomed:
        if not 0 <= ordinal < stored:
            raise IndexParameterError(
                f"stored ordinal {ordinal} out of range 0..{stored - 1}"
            )
        if ordinal in existing:
            raise IndexParameterError(
                f"stored ordinal {ordinal} is already deleted"
            )
    committed = replace(
        state,
        tombstones=tuple(sorted(existing | set(doomed))),
        generation=state.generation + 1,
    )
    write_layout(directory, committed)
    return committed


def _live_records(
    directory: Path, state: LiveState
) -> list[Sequence]:
    """Every surviving record, in stored-ordinal (= logical) order."""
    dead = set(state.tombstones)
    records: list[Sequence] = []
    for entry in state.entries:
        store_path = entry_directory(directory, entry) / STORE_NAME
        with SequenceStore(store_path) as store:
            for local in range(len(store)):
                if entry.base + local in dead:
                    continue
                records.append(store.record(local))
    return records


def compact_database(
    directory: str | Path,
    shards: int | None = None,
    workers: int = 1,
) -> LiveState:
    """Fold the deltas and tombstones back into base shards.

    The surviving records are read back in logical order, re-planned
    into ``shards`` contiguous ranges and each new base shard rebuilt
    exactly as :meth:`~repro.database.Database.create` would build it
    (optionally on a process pool), so a compacted tree holds the same
    index and store bytes as a fresh build of the survivors.

    The new shards land in fresh ``shard-g...`` directories and the
    generation bump is one atomic manifest replace; a crash anywhere
    during compaction is invisible on reopen, and the superseded
    directories are reclaimed best-effort afterwards.

    Args:
        directory: the live database directory.
        shards: base shard count to compact into; ``None`` keeps the
            current count.
        workers: shard-build processes.

    Returns:
        The committed :class:`LiveState` (unchanged if there was
        nothing to compact).

    Raises:
        IndexParameterError: if compaction would leave an empty
            collection, or ``workers`` < 1.
    """
    if workers < 1:
        raise IndexParameterError(f"workers must be >= 1, got {workers}")
    directory = Path(directory)
    state = read_layout(load_manifest(directory))
    target = len(state.base) if shards is None else int(shards)
    if target < 1:
        raise IndexParameterError(f"shards must be >= 1, got {target}")
    if (
        not state.deltas
        and not state.tombstones
        and target == len(state.base)
    ):
        return state
    if state.live_sequences == 0:
        raise IndexParameterError(
            "cannot compact to an empty collection (all records deleted)"
        )
    generation = state.generation + 1
    records = _live_records(directory, state)

    plan = plan_shards(len(records), target)
    entries = build_shards(
        directory,
        [compacted_shard_name(generation, spec.shard_id) for spec in plan],
        plan,
        records,
        state.params,
        state.coding,
        state.coarse,
        workers,
    )
    committed = replace(
        state, base=entries, deltas=(), tombstones=(), generation=generation
    )
    write_layout(directory, committed)
    cleanup_unreferenced(directory, committed)
    return committed


def cleanup_unreferenced(directory: str | Path, state: LiveState) -> list[Path]:
    """Best-effort removal of directories the live generation dropped.

    Runs strictly after the manifest swap, so nothing it touches is
    reachable; failures are logged and left for the next compaction
    (or ``repro verify``, which reports them as notes).

    Returns the paths actually removed.
    """
    directory = Path(directory)
    removed: list[Path] = []
    for orphan in orphan_directories(directory, state):
        try:
            shutil.rmtree(orphan)
        except OSError:
            _LOG.warning("could not remove superseded %s", orphan)
        else:
            removed.append(orphan)
    if "" not in {entry.name for entry in state.entries}:
        for name in (*ARTIFACT_NAMES.values(), STORE_NAME):
            stale = directory / name
            try:
                if stale.exists():
                    stale.unlink()
                    removed.append(stale)
            except OSError:
                _LOG.warning("could not remove superseded %s", stale)
    return removed
