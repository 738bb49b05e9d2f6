"""The database layout: one in-memory shape, three on-disk spellings.

Every database directory's ``manifest.json`` records one
:class:`LiveState` — base shards, delta shards, tombstones and a
generation — plus the settings every shard shares (store coding, index
parameters, coarse backend).  :func:`read_layout` is the only reader
and :func:`write_layout` the only writer.  The writer picks the
spelling from the state, so every manifest a build ever wrote keeps
its bytes:

* generation 0 with one base entry named ``""`` — the *classic*
  manifest.  Its files sit next to it and its ``checksums`` digest
  them::

      manifest.json  intervals.rpix  sequences.rpsq

* generation 0 with named entries — the *sharded* manifest.  Its
  ``"shards"`` section lists the shard directories, each a classic
  database of its own, with a copy of each shard's digests so damage
  is detectable from the top level alone::

      manifest.json
      shard-0000/  manifest.json  intervals.rpix  sequences.rpsq
      shard-0001/  ...

* generation >= 1 — the *live* manifest, written by the first ingest,
  delete or compaction::

      "lsm": {
          "generation": 3,
          "tombstones": [4, 17],          # global *stored* ordinals
          "base":   {"count": 2, "layout": [...]},
          "deltas": {"count": 1, "layout": [...]}
      }

  ``base`` is the layout the collection was built or last compacted
  into (a classic base stays the entry ``""``); every ``deltas`` entry
  is a complete, checksummed shard database appended by one ingest.

Stored ordinals run contiguously through the base and then the delta
entries.  The manifest is the *only* commit point: a mutation writes
its new directories first, then atomically replaces ``manifest.json``
with a state one generation higher.  A crash before that rename leaves
the previous generation intact; the directories it never referenced
are *orphans*, reported by ``Database.verify`` as notes and reclaimed
by the next compaction.  Tombstones are never rewritten in place:
readers present the logical collection (stored order, tombstoned
records elided), indistinguishable from a rebuild over the survivors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence as TypingSequence

from repro.coarse_backends.base import DEFAULT_BACKEND, artifact_name
from repro.errors import IndexFormatError
from repro.index.atomic import file_crc32, write_text_atomic
from repro.index.builder import IndexParameters

MANIFEST_NAME = "manifest.json"
INDEX_NAME = "intervals.rpix"
STORE_NAME = "sequences.rpsq"
MANIFEST_VERSION = 2
SUPPORTED_MANIFEST_VERSIONS = (2,)

#: Directory-name prefixes the layout owns; anything matching one of
#: these that the manifest does not reference is an orphan.
_SHARD_PREFIXES = ("shard-", "delta-")


def delta_name(generation: int) -> str:
    """Directory name of the delta shard created at ``generation``."""
    return f"delta-g{generation:06d}"


def compacted_shard_name(generation: int, slot: int) -> str:
    """Directory name of base shard ``slot`` written by a compaction
    that produced ``generation``."""
    return f"shard-g{generation:06d}-{slot:04d}"


@dataclass(frozen=True)
class ShardLayoutEntry:
    """One shard as the top-level manifest records it.

    Attributes:
        name: the shard's directory name; ``""`` when its files sit at
            the top of the database directory.
        base: global stored ordinal of the shard's first sequence.
        sequences / bases: the shard's collection size.
        index_bytes / store_bytes: on-disk footprint.
        checksums: the shard's file digests (for a named shard, a copy
            of its own manifest's).
    """

    name: str
    base: int
    sequences: int
    bases: int
    index_bytes: int
    store_bytes: int
    checksums: dict

    @property
    def stop(self) -> int:
        return self.base + self.sequences


@dataclass(frozen=True)
class LiveState:
    """A database's layout: everything its top-level manifest records.

    Attributes:
        coding: the sequence-store payload coding.
        params: the index shape every shard shares.
        coarse: the normalised coarse-backend section.
        base: the built or last-compacted layout (stored ordinals from
            0).
        deltas: delta shards appended since, stored ordinals continuing
            after the last base entry.
        tombstones: sorted, de-duplicated global *stored* ordinals of
            deleted records.
        generation: 0 until the first mutation; every ingest, delete
            and compaction, and a repair of a live database, bumps it.
    """

    coding: str
    params: IndexParameters
    coarse: dict
    base: tuple[ShardLayoutEntry, ...]
    deltas: tuple[ShardLayoutEntry, ...] = ()
    tombstones: tuple[int, ...] = ()
    generation: int = 0

    @property
    def entries(self) -> tuple[ShardLayoutEntry, ...]:
        """Every entry, in stored-ordinal order (base then deltas)."""
        return self.base + self.deltas

    def total(self, field: str) -> int:
        """An entry size summed over the stored collection, e.g.
        ``total("index_bytes")``."""
        return sum(getattr(entry, field) for entry in self.entries)

    @property
    def stored_sequences(self) -> int:
        """Records on disk, including tombstoned ones."""
        return self.total("sequences")

    @property
    def live_sequences(self) -> int:
        """Records the logical collection presents."""
        return self.stored_sequences - len(self.tombstones)


def load_manifest(directory: Path) -> dict:
    """Read a database directory's manifest and check its version.

    Raises:
        IndexFormatError: if the manifest is missing, unparsable, or of
            an unsupported version.
    """
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise IndexFormatError(f"{directory} holds no database manifest")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise IndexFormatError(f"{directory}: bad manifest") from exc
    if manifest.get("version") not in SUPPORTED_MANIFEST_VERSIONS:
        raise IndexFormatError(
            f"{directory}: unsupported database version "
            f"{manifest.get('version')}"
        )
    return manifest


def _entry(description: dict) -> ShardLayoutEntry:
    checksums = description.get("checksums")
    if checksums is None:
        # Without digests the file audit has nothing to compare against.
        raise IndexFormatError(
            f"shard {description['name'] or '<top level>'} records no "
            "file digests"
        )
    return ShardLayoutEntry(
        name=str(description["name"]),
        base=int(description["base"]),
        sequences=int(description["sequences"]),
        bases=int(description["bases"]),
        index_bytes=int(description["index_bytes"]),
        store_bytes=int(description["store_bytes"]),
        checksums=dict(checksums),
    )


def _entries(section: dict, label: str) -> tuple[ShardLayoutEntry, ...]:
    entries = tuple(_entry(description) for description in section["layout"])
    if int(section["count"]) != len(entries):
        raise IndexFormatError(
            f"{label} layout lists {len(entries)} entries but records "
            f"count {section['count']}"
        )
    return entries


def read_layout(manifest: dict) -> LiveState:
    """The layout a manifest records, whichever spelling it uses.

    A classic manifest reads as one base entry named ``""`` at
    generation 0, a sharded one as its shards at generation 0, and a
    manifest without a ``coarse`` section as the inverted backend.

    Raises:
        IndexFormatError: if a section is malformed, an entry records
            no file digests, the entries are not contiguous from stored
            ordinal 0, or the tombstones are unsorted, duplicated, or
            out of range.
    """
    try:
        section = manifest.get("coarse", {"backend": DEFAULT_BACKEND})
        coarse = {
            "backend": str(section["backend"]),
            "params": dict(section.get("params") or {}),
        }
        settings = (
            str(manifest["coding"]),
            IndexParameters.from_description(manifest["params"]),
            coarse,
        )
        if "lsm" in manifest:
            lsm = manifest["lsm"]
            generation = int(lsm["generation"])
            if generation < 1:
                raise IndexFormatError(
                    f"lsm generation must be >= 1, got {generation} (live "
                    "manifests are only written by mutations)"
                )
            state = LiveState(
                *settings,
                base=_entries(lsm.get("base", {}), "lsm base"),
                deltas=_entries(
                    lsm.get("deltas", {"count": 0, "layout": []}),
                    "lsm deltas",
                ),
                tombstones=tuple(int(o) for o in lsm.get("tombstones", [])),
                generation=generation,
            )
        elif "shards" in manifest:
            state = LiveState(
                *settings, base=_entries(manifest["shards"], "shard")
            )
        else:
            state = LiveState(
                *settings, base=(_entry({"name": "", "base": 0, **manifest}),)
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(f"malformed manifest: {exc}") from exc
    artifact_name(coarse["backend"])  # validates the backend name
    if not state.base:
        raise IndexFormatError("manifest records no base shards")
    expected = 0
    for entry in state.entries:
        if entry.base != expected:
            raise IndexFormatError(
                f"shard {entry.name or '<top level>'} starts at stored "
                f"ordinal {entry.base}, expected {expected} (layout must "
                "be contiguous)"
            )
        expected = entry.stop
    for previous, ordinal in zip((-1,) + state.tombstones, state.tombstones):
        if ordinal <= previous:
            raise IndexFormatError(
                "lsm tombstones must be sorted and unique, got "
                f"{list(state.tombstones)}"
            )
        if ordinal >= expected:
            raise IndexFormatError(
                f"lsm tombstone {ordinal} outside stored ordinal range "
                f"0..{expected - 1}"
            )
    return state


def _section(entries: tuple[ShardLayoutEntry, ...]) -> dict:
    return {
        "count": len(entries),
        "layout": [asdict(entry) for entry in entries],
    }


def write_layout(directory: Path, state: LiveState) -> None:
    """Atomically persist ``state`` as ``directory``'s manifest.

    The flat totals describe the *stored* collection (tombstoned
    records included), so they keep matching the files the entries
    digest.  The spelling follows the state: ``lsm`` from generation 1,
    else ``checksums`` for a lone ``""`` entry, else ``shards``.
    """
    manifest = {
        "version": MANIFEST_VERSION,
        "sequences": state.total("sequences"),
        "bases": state.total("bases"),
        "coding": state.coding,
        "params": state.params.describe(),
        "coarse": state.coarse,
        "index_bytes": state.total("index_bytes"),
        "store_bytes": state.total("store_bytes"),
    }
    if state.generation:
        manifest["lsm"] = {
            "generation": state.generation,
            "tombstones": list(state.tombstones),
            "base": _section(state.base),
            "deltas": _section(state.deltas),
        }
    elif state.base[0].name:
        manifest["shards"] = _section(state.base)
    else:
        manifest["checksums"] = state.base[0].checksums
    write_text_atomic(
        directory / MANIFEST_NAME, json.dumps(manifest, indent=2)
    )


def directory_entry(
    directory: Path,
    records: TypingSequence,
    index_bytes: int,
    store_bytes: int,
    coarse: dict,
) -> ShardLayoutEntry:
    """The ``""`` entry for a directory whose coarse artefact and store
    of ``records`` were just written, with both files digested."""
    names = (artifact_name(coarse["backend"]), STORE_NAME)
    return ShardLayoutEntry(
        name="",
        base=0,
        sequences=len(records),
        bases=int(sum(len(record) for record in records)),
        index_bytes=index_bytes,
        store_bytes=store_bytes,
        checksums={
            name: f"{file_crc32(directory / name):08x}" for name in names
        },
    )


def entry_directory(directory: Path, entry: ShardLayoutEntry) -> Path:
    """Filesystem directory holding an entry's files."""
    return directory / entry.name if entry.name else directory


def orphan_directories(directory: Path, state: LiveState) -> list[Path]:
    """Shard/delta-style directories the manifest does not reference.

    These are the visible residue of an interrupted ingest or
    compaction (or of a completed compaction whose cleanup was
    interrupted): harmless, invisible to readers, and safe to delete.
    """
    referenced = {entry.name for entry in state.entries}
    return [
        child
        for child in sorted(directory.iterdir())
        if child.is_dir()
        and child.name.startswith(_SHARD_PREFIXES)
        and child.name not in referenced
    ]
