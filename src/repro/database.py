"""A persistent nucleotide database: shards of index + store + engine.

:class:`Database` is the convenience layer a downstream user adopts:
it owns a directory holding one or more *shards* — each an on-disk
index and sequence store over a contiguous ordinal range — opens them
memory-mapped, and hands out ready-made search engines.

    from repro import Database, read_fasta

    Database.create(read_fasta("genbank.fasta"), "genbank.db",
                    shards=4, workers=4)
    with Database.open("genbank.db") as db:
        report = db.search(query, top_k=10)
        print(db.alignment(query, report.best().ordinal).pretty())

A database built with ``shards=1`` (the default) is byte-identical to
the classic single-index layout, so existing databases open unchanged;
``shards=N`` builds the shards in parallel worker processes and
queries fan out across them with globally merged, score-identical
results (see :mod:`repro.sharding` and ``docs/ARCHITECTURE.md``).

Durability: every file is written atomically (temp + fsync + rename)
and manifests — written last, innermost first — record CRC32 digests
of the index and store files, so an interrupted build is never
mistaken for a valid database and silent file damage is detectable.
:meth:`open` accepts a ``verify`` mode and an ``on_corruption``
policy; :meth:`verify` audits a directory without fully opening it and
:meth:`repair` rebuilds each shard's index from its surviving store.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.coarse_backends.signature import SignatureIndex

import numpy as np

from repro.align.pairwise import Alignment, local_align
from repro.align.scoring import ScoringScheme
from repro.align.statistics import GumbelParameters, calibrate_gapped
from repro.coarse_backends import get_backend
from repro.coarse_backends.base import (
    DEFAULT_BACKEND,
    artifact_name,
    coarse_section,
)
from repro.errors import (
    CorruptionError,
    IndexFormatError,
    IndexParameterError,
    SearchError,
)
from repro.index.atomic import file_crc32
from repro.index.builder import IndexParameters
from repro.index.storage import DiskIndex
from repro.index.store import SequenceStore
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    coalesce,
)
from repro.lsm.mutate import append_delta, compact_database, tombstone
from repro.search.deadline import Deadline
from repro.search.engine import CORRUPTION_POLICIES, PartitionedSearchEngine
from repro.search.resilience import ShardResilience
from repro.search.results import SearchReport
from repro.sequences.record import Sequence
from repro.sharding.build import build_shard_directory, build_sharded_database
from repro.sharding.manifest import (
    MANIFEST_NAME,
    STORE_NAME,
    LiveState,
    ShardLayoutEntry,
    directory_entry,
    entry_directory,
    load_manifest,
    orphan_directories,
    read_layout,
    write_layout,
)
from repro.sharding.planner import plan_shards, shard_of

#: Verification modes accepted by :meth:`Database.open`.
VERIFY_MODES = ("lazy", "full")

_LOG = logging.getLogger(__name__)


@dataclass
class VerificationReport:
    """Outcome of a database integrity audit.

    Attributes:
        path: the audited directory.
        issues: detected damage — anything here means the database is
            not fully intact.
        notes: non-fatal observations (e.g. orphan directories no
            manifest references).
    """

    path: Path
    issues: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        state = "intact" if self.ok else f"{len(self.issues)} problem(s)"
        return f"{self.path}: {state}"


@dataclass(frozen=True)
class AutoCompactPolicy:
    """When a mutation should fold the LSM structure back down.

    Passed to :meth:`Database.add_records` / :meth:`Database.delete`;
    evaluated strictly *after* the mutation's manifest swap commits, so
    the trigger runs on the mutation path, never the query path, and a
    crash between commit and compaction loses nothing.

    Attributes:
        max_delta_shards: compact once more than this many delta shards
            have accumulated.
        max_tombstone_ratio: compact once tombstoned records exceed
            this fraction of the stored collection.

    Raises:
        IndexParameterError: if ``max_delta_shards`` < 1 or
            ``max_tombstone_ratio`` is outside (0, 1].
    """

    max_delta_shards: int = 4
    max_tombstone_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.max_delta_shards < 1:
            raise IndexParameterError(
                f"max_delta_shards must be >= 1, got {self.max_delta_shards}"
            )
        if not 0.0 < self.max_tombstone_ratio <= 1.0:
            raise IndexParameterError(
                "max_tombstone_ratio must lie in (0, 1], got "
                f"{self.max_tombstone_ratio}"
            )

    def should_compact(
        self, delta_shards: int, tombstones: int, stored: int
    ) -> bool:
        """Whether the thresholds are exceeded for the given state."""
        if delta_shards > self.max_delta_shards:
            return True
        return bool(
            stored and tombstones / stored > self.max_tombstone_ratio
        )


@dataclass
class ShardHandle:
    """One opened shard: its directory, ordinal base, and readers.

    ``index`` is whichever coarse reader the database's backend opens —
    a :class:`~repro.index.storage.DiskIndex` for the default
    ``inverted`` backend, a
    :class:`~repro.coarse_backends.signature.SignatureIndex` for
    ``signature`` — and ``None`` when it was unreadable and the
    ``"fallback"`` policy opened the shard without it (every query then
    runs degraded: see :mod:`repro.search.engine`).
    """

    name: str
    path: Path
    base: int
    index: DiskIndex | SignatureIndex | None
    store: SequenceStore

    @property
    def degraded(self) -> bool:
        return self.index is None

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
        self.store.close()


@dataclass(frozen=True, eq=False)
class Snapshot:
    """One generation of a database: everything a reader of it reads.

    A :class:`Database` holds exactly one snapshot and swaps the whole
    reference when a mutation commits, so a reader that takes the
    snapshot once — a search, a :meth:`Database.records` iteration —
    sees one collection from start to end.  A superseded snapshot is
    never closed: a reader still holding it keeps its shards' maps and
    its engines, and the garbage collector releases them once the last
    holder drops it.

    The snapshot owns the one map between *logical* ordinals (the
    ordinals a rebuild over the surviving records would assign) and
    *stored* ones (shard order concatenated, tombstones included):
    see :meth:`locate`.

    Attributes:
        manifest: the parsed top-level ``manifest.json``.
        live: its layout.
        shards: the opened shard handles, in ordinal order.
        tombstones: stored ordinals of deleted records, ascending.
        total_bases: live residues (tombstoned records' bases
            excluded).
        engines: this generation's engine LRU, guarded by the owning
            database's engine lock.
    """

    manifest: dict
    live: LiveState
    shards: tuple[ShardHandle, ...]
    tombstones: np.ndarray
    total_bases: int
    engines: "OrderedDict[tuple, PartitionedSearchEngine]" = field(
        default_factory=OrderedDict
    )

    @classmethod
    def of(
        cls, manifest: dict, live: LiveState, shards: list[ShardHandle]
    ) -> "Snapshot":
        """The snapshot over opened ``shards``; reads the tombstoned
        records' lengths to count the live bases."""
        dead = np.asarray(live.tombstones, dtype=np.int64)
        bases = [shard.base for shard in shards]
        dead_bases = 0
        for stored in dead.tolist():
            shard = shards[shard_of(bases, stored)]
            local = stored - shard.base
            dead_bases += (
                int(shard.index.collection.lengths[local])
                if shard.index is not None
                else int(shard.store.codes(local).shape[0])
            )
        return cls(
            manifest, live, tuple(shards), dead,
            live.total("bases") - dead_bases,
        )

    def __len__(self) -> int:
        return self.live.live_sequences

    def locate(self, ordinal: int) -> tuple[ShardHandle, int]:
        """The shard holding logical ``ordinal``, and the record's
        ordinal within that shard.

        Raises:
            SearchError: if ``ordinal`` is out of range.
        """
        if not 0 <= ordinal < len(self):
            raise SearchError(f"no sequence with ordinal {ordinal}")
        dead = self.tombstones
        # The j-th tombstone precedes logical ordinal dead[j] - j, so a
        # logical ordinal skips every tombstone with dead[j] - j <= it.
        stored = ordinal + int(
            np.searchsorted(dead - np.arange(dead.size), ordinal, "right")
        )
        shard = self.shards[
            shard_of([shard.base for shard in self.shards], stored)
        ]
        return shard, stored - shard.base

    def close(self) -> None:
        """Release the cached engines' executors and every shard's
        maps."""
        for engine in self.engines.values():
            engine.close()
        self.engines.clear()
        for shard in self.shards:
            shard.close()


class Database:
    """A directory-backed searchable nucleotide collection.

    Create with :meth:`create`, open with :meth:`open` (also a context
    manager).  The default engine settings can be overridden per call.

    A database opened with ``on_corruption="fallback"`` any of whose
    shard indexes is unreadable runs *degraded*: :attr:`degraded` is
    true and every query scans every live sequence, with the same
    deadline, strand, E-value, tombstone and breaker handling as a
    healthy query.
    """

    #: Engines retained per generation; the least recently used engine
    #: is dropped when a new configuration would exceed this.
    ENGINE_CACHE_LIMIT = 8

    def __init__(
        self,
        path: Path,
        snapshot: Snapshot,
        on_corruption: str = "raise",
    ) -> None:
        self.path = path
        self.on_corruption = on_corruption
        self._snapshot = snapshot
        # Concurrent server requests share one database: the engine
        # cache's get/build/evict and the snapshot swap must be atomic
        # or two threads race to build (and evict) the same
        # configuration.  Reentrant because significance calibration
        # can re-enter via instrumented spans.
        self._engine_lock = threading.RLock()
        # Per database, not per generation: a mutation leaves the
        # scoring scheme's calibration valid.
        self._significance: dict[ScoringScheme, GumbelParameters] = {}
        self._instruments = NULL_INSTRUMENTS

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(
        cls,
        sequences: Iterable[Sequence],
        path: str | Path,
        params: IndexParameters | None = None,
        coding: str = "direct",
        shards: int = 1,
        workers: int = 1,
        coarse_backend: str = DEFAULT_BACKEND,
        coarse_params: dict | None = None,
    ) -> "Database":
        """Build and persist a database directory, then open it.

        All files are written atomically and each manifest lands after
        the files it covers (the top-level manifest last), so an
        interrupted build leaves a directory :meth:`open` will reject
        rather than a silently half-written database.

        Args:
            sequences: the collection (any iterable of records).
            path: directory to create (must not already contain a
                database).
            params: index shape (defaults to overlapping length-8
                intervals).
            coding: sequence-store payload coding, "direct" or "raw".
            shards: contiguous ordinal ranges to split the collection
                into; 1 (the default) writes the classic byte-identical
                single-index layout.  Clamped to the collection size.
            workers: shard-build processes; with ``shards=N`` and
                ``workers=M`` up to ``min(N, M)`` shards build
                concurrently.  Ignored for single-shard builds.
            coarse_backend: which coarse artifact each shard builds —
                ``"inverted"`` (the default posting-list index) or
                ``"signature"`` (the bit-sliced signature index; see
                :mod:`repro.coarse_backends`).  Recorded in the
                manifest and honoured by every later mutation.
            coarse_params: backend-specific knobs (for ``signature``:
                ``false_positive_rate``, ``hashes``,
                ``docs_per_block``).

        Raises:
            IndexFormatError: if the directory already holds a database
                or ``coarse_backend`` is unknown.
            IndexParameterError: if ``shards`` or ``workers`` < 1, or
                ``coarse_params`` are invalid for the backend.
        """
        if shards < 1:
            raise IndexParameterError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise IndexParameterError(f"workers must be >= 1, got {workers}")
        coarse = coarse_section(coarse_backend, coarse_params)
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / MANIFEST_NAME).exists():
            raise IndexFormatError(f"{directory} already holds a database")
        records = list(sequences)
        params = params or IndexParameters()
        if shards > 1 and shards > len(records):
            _LOG.warning(
                "%s: %d shards requested for %d sequences; clamping",
                directory,
                shards,
                len(records),
            )
        if shards > 1 and min(shards, len(records)) > 1:
            build_sharded_database(
                directory, records, plan_shards(len(records), shards),
                params, coding, workers, coarse=coarse,
            )
        else:
            build_shard_directory(directory, records, params, coding, coarse)
        return cls.open(directory)

    @classmethod
    def open(
        cls,
        path: str | Path,
        verify: str = "lazy",
        on_corruption: str = "raise",
    ) -> "Database":
        """Open an existing (possibly sharded or live) database directory.

        Args:
            path: the database directory.
            verify: ``"lazy"`` checks headers and tables eagerly and
                each posting list / record lazily on first access (the
                default); ``"full"`` additionally runs :meth:`verify`'s
                audit of the opened generation before returning.
            on_corruption: default policy for engines created by this
                database (see :class:`PartitionedSearchEngine`).  With
                ``"fallback"``, an unreadable shard *index* opens the
                database degraded instead of failing.

        Raises:
            IndexFormatError: if the directory is not a database or its
                files are inconsistent.
            CorruptionError: if an integrity check fails (and the
                policy does not degrade).
        """
        if verify not in VERIFY_MODES:
            raise IndexFormatError(
                f"unknown verify mode {verify!r}; expected one of "
                f"{VERIFY_MODES}"
            )
        if on_corruption not in CORRUPTION_POLICIES:
            raise SearchError(
                f"unknown on_corruption {on_corruption!r}; expected one of "
                f"{CORRUPTION_POLICIES}"
            )
        directory = Path(path)
        snapshot = cls._load(directory, on_corruption)
        if verify == "full":
            report = cls._audit(directory, snapshot.live)
            if not report.ok:
                snapshot.close()
                raise CorruptionError(
                    f"{directory}: full verification failed: "
                    + "; ".join(report.issues)
                )
        return cls(directory, snapshot, on_corruption)

    @classmethod
    def _load(cls, directory: Path, on_corruption: str) -> Snapshot:
        """Open the directory's current generation."""
        manifest = load_manifest(directory)
        live = read_layout(manifest)
        shards: list[ShardHandle] = []
        try:
            for entry in live.entries:
                shards.append(
                    cls._open_shard(directory, entry, on_corruption, live)
                )
            return Snapshot.of(manifest, live, shards)
        except Exception:
            # Never leak mmaps/handles when a later step fails.
            for shard in shards:
                shard.close()
            raise

    @classmethod
    def _open_shard(
        cls,
        directory: Path,
        entry: ShardLayoutEntry,
        on_corruption: str,
        live: LiveState,
    ) -> ShardHandle:
        """Open one entry's readers, honouring the fallback policy."""
        path = entry_directory(directory, entry)
        index: DiskIndex | SignatureIndex | None = None
        store: SequenceStore | None = None
        try:
            try:
                index = get_backend(live.coarse["backend"]).open_artifact(
                    path
                )
            except IndexFormatError as exc:
                if on_corruption != "fallback":
                    raise
                _LOG.warning(
                    "%s: index unreadable (%s); opening degraded "
                    "(queries scan every live sequence)",
                    path,
                    exc,
                )
            store = SequenceStore(path / STORE_NAME)
            problems = cls._size_problems(path, entry, index, store)
            if problems:
                raise IndexFormatError("; ".join(problems))
            return ShardHandle(entry.name, path, entry.base, index, store)
        except Exception:
            if index is not None:
                index.close()
            if store is not None:
                store.close()
            raise

    @staticmethod
    def _size_problems(
        path: Path,
        entry: ShardLayoutEntry,
        index: DiskIndex | SignatureIndex | None,
        store: SequenceStore,
    ) -> list[str]:
        """Disagreements between an entry's record count, its store and
        its index."""
        problems = []
        if len(store) != entry.sequences:
            problems.append(
                f"{path}: manifest promises {entry.sequences} sequences "
                f"but the store holds {len(store)}"
            )
        if index is not None and index.collection.num_sequences != len(store):
            problems.append(
                f"{path}: index and store disagree about the collection "
                "size"
            )
        return problems

    @staticmethod
    def _audit_files(
        directory: Path,
        entry: ShardLayoutEntry,
        live: LiveState,
        index: DiskIndex | SignatureIndex | None,
        store: SequenceStore,
        report: VerificationReport,
    ) -> None:
        """Digest + checksum audit of one entry's opened files."""
        for name in (artifact_name(live.coarse["backend"]), STORE_NAME):
            recorded = entry.checksums.get(name)
            if recorded is None:
                report.issues.append(
                    f"{directory}: manifest has no digest for {name}"
                )
                continue
            try:
                actual = f"{file_crc32(directory / name):08x}"
            except OSError as exc:
                report.issues.append(
                    f"{directory / name}: unreadable ({exc})"
                )
                continue
            if actual != recorded:
                report.issues.append(
                    f"{directory / name}: file digest {actual} does not "
                    f"match manifest {recorded}"
                )
        for reader in (index, store):
            if reader is not None:
                report.issues.extend(reader.verify())

    @classmethod
    def verify(cls, path: str | Path) -> VerificationReport:
        """Audit a database directory without requiring it to open.

        Checks the manifest, then every entry's record count, whole-file
        digests and internal checksums; problems are collected rather
        than raised, so a damaged database yields a complete report.  A
        shard directory's own manifest is also cross-checked against the
        copy the top-level manifest recorded, so a swapped-out shard is
        caught even when the shard itself is internally consistent.
        Directories no manifest references are reported as notes.
        """
        directory = Path(path)
        try:
            live = read_layout(load_manifest(directory))
        except IndexFormatError as exc:
            return VerificationReport(directory, [str(exc)])
        return cls._audit(directory, live)

    @classmethod
    def _audit(cls, directory: Path, live: LiveState) -> VerificationReport:
        """:meth:`verify`'s audit of one parsed layout."""
        report = VerificationReport(directory)
        for entry in live.entries:
            shard_dir = entry_directory(directory, entry)
            if entry.name:
                try:
                    own = read_layout(load_manifest(shard_dir)).base[0]
                except IndexFormatError as exc:
                    report.issues.append(f"{shard_dir}: {exc}")
                else:
                    if replace(own, name=entry.name, base=entry.base) != entry:
                        report.issues.append(
                            f"{shard_dir}: shard manifest does not match "
                            "the top-level manifest (shard replaced or "
                            "rebuilt outside the database?)"
                        )
            index: DiskIndex | SignatureIndex | None = None
            store: SequenceStore | None = None
            try:
                try:
                    index = get_backend(
                        live.coarse["backend"]
                    ).open_artifact(shard_dir)
                except (IndexFormatError, OSError) as exc:
                    report.issues.append(f"index: {exc}")
                try:
                    store = SequenceStore(shard_dir / STORE_NAME)
                except (IndexFormatError, OSError) as exc:
                    report.issues.append(f"store: {exc}")
                if store is not None:
                    report.issues.extend(
                        cls._size_problems(shard_dir, entry, index, store)
                    )
                    cls._audit_files(
                        shard_dir, entry, live, index, store, report
                    )
            finally:
                if index is not None:
                    index.close()
                if store is not None:
                    store.close()
        for orphan in orphan_directories(directory, live):
            report.notes.append(
                f"{orphan}: not referenced by the live manifest "
                "(interrupted ingest/compaction leftover; the next "
                "compaction reclaims it)"
            )
        return report

    @classmethod
    def repair(
        cls,
        path: str | Path,
        params: IndexParameters | None = None,
    ) -> "Database":
        """Rebuild every entry's coarse artefact from its store.

        Each entry's sequence store is fully verified first — it is the
        source of truth, so it must be intact.  The coarse artefact is
        then rebuilt from the stored records and written atomically,
        followed by fresh manifests with up-to-date digests: each shard
        directory's own, then the top-level one.  The layout keeps its
        spelling and tombstones; a live database's generation is
        bumped, a classic or sharded one stays at generation 0.  A
        directory whose manifest is missing or unreadable is rebuilt as
        a classic database with library defaults.

        Args:
            path: the database directory.
            params: index shape; defaults to the manifest's recorded
                parameters.

        Raises:
            CorruptionError: if a store itself is damaged (nothing to
                rebuild from).
            IndexFormatError: if an entry holds no store at all, or the
                manifest is readable but malformed.

        Returns:
            The repaired database, opened.
        """
        directory = Path(path)
        try:
            manifest = load_manifest(directory)
        except IndexFormatError:
            manifest = None
        live = read_layout(manifest) if manifest is not None else LiveState(
            "direct",
            IndexParameters(),
            coarse_section(),
            (ShardLayoutEntry("", 0, 0, 0, 0, 0, {}),),
        )
        params = params or live.params
        entries: list[ShardLayoutEntry] = []
        for entry in live.entries:
            shard_dir = entry_directory(directory, entry)
            rebuilt, coding = cls._rebuild(shard_dir, params, live.coarse)
            if entry.name:
                write_layout(
                    shard_dir,
                    LiveState(coding, params, live.coarse, (rebuilt,)),
                )
            entries.append(
                replace(
                    rebuilt,
                    name=entry.name,
                    base=sum(done.sequences for done in entries),
                )
            )
        split = len(live.base)
        write_layout(
            directory,
            replace(
                live,
                coding=coding,
                params=params,
                base=tuple(entries[:split]),
                deltas=tuple(entries[split:]),
                generation=live.generation + 1 if live.generation else 0,
            ),
        )
        return cls.open(directory)

    @staticmethod
    def _rebuild(
        directory: Path, params: IndexParameters, coarse: dict
    ) -> tuple[ShardLayoutEntry, str]:
        """Rebuild one entry directory's coarse artefact from its store;
        returns the directory's fresh ``""`` entry and store coding."""
        store_path = directory / STORE_NAME
        if not store_path.exists():
            raise IndexFormatError(
                f"{directory}: no sequence store to rebuild from"
            )
        with SequenceStore(store_path) as store:
            problems = store.verify()
            if problems:
                raise CorruptionError(
                    f"{directory}: store is damaged, cannot repair: "
                    + "; ".join(problems)
                )
            records = [store.record(ordinal) for ordinal in range(len(store))]
            coding = store.coding
        index_bytes = get_backend(coarse["backend"]).build_artifact(
            directory, records, params, coarse["params"]
        )
        entry = directory_entry(
            directory, records, index_bytes, store_path.stat().st_size, coarse
        )
        return entry, coding

    def close(self) -> None:
        """Release cached engines' executors and every shard's maps."""
        with self._engine_lock:
            self._snapshot.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- collection access ----------------------------------------------

    @property
    def manifest(self) -> dict:
        """The current generation's parsed top-level manifest."""
        return self._snapshot.manifest

    @property
    def live(self) -> LiveState:
        """The current generation's layout."""
        return self._snapshot.live

    @property
    def num_shards(self) -> int:
        """Shards the collection is split into (1 for classic layout)."""
        return len(self._snapshot.shards)

    @property
    def shards(self) -> list[ShardHandle]:
        """The opened shard handles, in ordinal order."""
        return list(self._snapshot.shards)

    @property
    def index(self) -> DiskIndex | SignatureIndex | None:
        """The coarse reader of a single-shard database; ``None`` when
        the database is sharded (shard indexes live on :attr:`shards`)
        or degraded."""
        shards = self._snapshot.shards
        return shards[0].index if len(shards) == 1 else None

    @property
    def store(self) -> SequenceStore | None:
        """The store of a single-shard database; ``None`` when sharded
        (use :meth:`record` / :meth:`records`, which route globally)."""
        shards = self._snapshot.shards
        return shards[0].store if len(shards) == 1 else None

    @property
    def coarse_backend(self) -> str:
        """The coarse backend every shard of this database uses
        (``"inverted"`` unless the manifest declares otherwise)."""
        return str(self.live.coarse["backend"])

    @property
    def degraded(self) -> bool:
        """True when any shard's index was unreadable and every query
        scans every live sequence."""
        return any(shard.degraded for shard in self._snapshot.shards)

    def __len__(self) -> int:
        """Live sequences (tombstoned records are not presented)."""
        return len(self._snapshot)

    @property
    def stored_sequences(self) -> int:
        """Sequences on disk, tombstoned ones included."""
        return self.live.stored_sequences

    @property
    def generation(self) -> int:
        """The live manifest's generation (0 for a never-mutated
        database)."""
        return self.live.generation

    @property
    def delta_shards(self) -> int:
        """Delta shards appended since the last compaction."""
        return len(self.live.deltas)

    @property
    def tombstone_count(self) -> int:
        """Records deleted but not yet compacted away."""
        return len(self.live.tombstones)

    @property
    def total_bases(self) -> int:
        """Live residues (tombstoned records' bases excluded)."""
        return self._snapshot.total_bases

    def shard_of(self, ordinal: int) -> ShardHandle:
        """The shard holding a (logical) global ordinal.

        Raises:
            SearchError: if ``ordinal`` is out of range.
        """
        return self._snapshot.locate(ordinal)[0]

    def record(self, ordinal: int) -> Sequence:
        """Fetch one sequence record by (logical) global ordinal.

        Raises:
            SearchError: if ``ordinal`` is out of range.
        """
        shard, local = self._snapshot.locate(ordinal)
        return shard.store.record(local)

    def records(self) -> Iterator[Sequence]:
        """Iterate every live record in logical ordinal order, all from
        the generation current at the call."""
        snapshot = self._snapshot
        return (
            shard.store.record(local)
            for shard, local in map(snapshot.locate, range(len(snapshot)))
        )

    # -- observability ---------------------------------------------------

    def set_instruments(self, instruments: Instruments | None) -> None:
        """Attach an observability sink to the database facade.

        The facade reports engine-cache traffic
        (``database.engine_cache.hits`` / ``misses`` / ``evictions``
        and the ``database.engine_cache.size`` gauge); engines created
        *after* the call are wired with the same sink.  Passing
        ``None`` detaches.
        """
        self._instruments = coalesce(instruments)
        self._publish_lsm_gauges()

    def _publish_lsm_gauges(self) -> None:
        instruments = self._instruments
        if not instruments.enabled:
            return
        live = self.live
        instruments.set_gauge("lsm.generation", live.generation)
        instruments.set_gauge("lsm.delta_shards", len(live.deltas))
        instruments.set_gauge("lsm.tombstones", len(live.tombstones))

    # -- mutation (the live/LSM layer) -----------------------------------

    def _reload(self) -> None:
        """Adopt the directory's current generation: open its
        :class:`Snapshot` first, so a failed reopen leaves the database
        on its old generation, then swap the one reference."""
        fresh = self._load(self.path, self.on_corruption)
        with self._engine_lock:
            self._snapshot = fresh
        self._publish_lsm_gauges()

    def add_records(
        self,
        records: Iterable[Sequence],
        auto_compact: AutoCompactPolicy | None = None,
    ) -> int:
        """Ingest new records as one delta shard; returns the new
        generation.

        The delta is a complete checksummed v2 database built under
        ``delta-g<generation>/``; the atomic manifest swap referencing
        it is the last write, so a crash mid-ingest leaves the previous
        generation serving and an orphan directory ``verify`` merely
        notes.  The database reflects the new generation on return.
        The delta's coarse artifact matches the database's backend
        (``signature`` databases grow signature deltas).

        ``auto_compact`` — an :class:`AutoCompactPolicy` — triggers a
        full :meth:`compact` after the ingest commits when its
        thresholds are exceeded; the returned generation then reflects
        the compaction.

        Raises:
            IndexParameterError: if ``records`` is empty.
        """
        records = list(records)
        with self._instruments.span("lsm.append") as span:
            state = append_delta(self.path, records)
            if span is not None:
                span.annotate("records", len(records))
                span.annotate("generation", state.generation)
        self._instruments.count("lsm.records_added", len(records))
        self._reload()
        self._maybe_auto_compact(auto_compact)
        return self.generation

    def delete(
        self,
        targets: Iterable[str | int],
        auto_compact: AutoCompactPolicy | None = None,
    ) -> int:
        """Tombstone records by identifier or logical ordinal; returns
        the new generation.

        A string target deletes *every* live record carrying that
        identifier; an integer target deletes the record at that
        logical ordinal.  Deletion is one atomic manifest swap — no
        shard file is rewritten — and later ordinals shift down,
        exactly as a rebuild without the records would number them.
        ``auto_compact`` triggers a full :meth:`compact` after the
        swap commits when the policy's thresholds are exceeded (a
        fully-tombstoned collection is never auto-compacted — an index
        cannot be empty).

        Raises:
            SearchError: if a target matches nothing (unknown
                identifier or out-of-range ordinal).
        """
        snapshot = self._snapshot
        stored: set[int] = set()
        for target in targets:
            if isinstance(target, str):
                matches = [
                    shard.base + local
                    for shard, local in map(
                        snapshot.locate, range(len(snapshot))
                    )
                    if shard.store.identifier(local) == target
                ]
                if not matches:
                    raise SearchError(
                        f"{self.path}: no live record with identifier "
                        f"{target!r}"
                    )
                stored.update(matches)
            else:
                shard, local = snapshot.locate(int(target))
                stored.add(shard.base + local)
        with self._instruments.span("lsm.delete") as span:
            state = tombstone(self.path, sorted(stored))
            if span is not None:
                span.annotate("records", len(stored))
                span.annotate("generation", state.generation)
        self._instruments.count("lsm.records_deleted", len(stored))
        self._reload()
        self._maybe_auto_compact(auto_compact)
        return self.generation

    def _maybe_auto_compact(self, policy: AutoCompactPolicy | None) -> None:
        """Compact if a mutation pushed the LSM past the policy's
        thresholds.

        Runs after the mutation's commit, on the caller's (mutation)
        thread — queries concurrently served by other engines never
        wait on it.  A collection with no live records is left alone
        (compaction would have nothing to build).
        """
        live = self.live
        if policy is None or live.live_sequences == 0:
            return
        if not policy.should_compact(
            len(live.deltas), len(live.tombstones), live.stored_sequences
        ):
            return
        self._instruments.count("lsm.auto_compactions")
        self.compact()

    def compact(self, shards: int | None = None, workers: int = 1) -> int:
        """Fold deltas and tombstones back into base shards; returns
        the (possibly unchanged) generation.

        New base shards land in fresh ``shard-g...`` directories and
        the generation is committed by one atomic manifest replace — a
        compaction killed at any point is invisible on reopen.  The
        survivors are re-planned into ``shards`` ranges and rebuilt as
        :meth:`create` builds them (the same bytes as a fresh build),
        optionally on ``workers`` processes.  No-op (and no generation
        bump) when there is nothing to compact.

        Raises:
            IndexParameterError: if every record is tombstoned (an
                index cannot be empty) or ``workers`` < 1.
        """
        with self._instruments.span("lsm.compact") as span:
            state = compact_database(self.path, shards=shards, workers=workers)
            if span is not None:
                span.annotate("generation", state.generation)
                span.annotate("base_shards", len(state.base))
        if state.generation != self.generation:
            self._instruments.count("lsm.compactions")
            self._reload()
        return state.generation

    # -- searching -------------------------------------------------------

    def engine(
        self,
        coarse_cutoff: int = 100,
        scheme: ScoringScheme | None = None,
        coarse_scorer: str = "count",
        fine_mode: str = "full",
        both_strands: bool = False,
        with_evalues: bool = False,
        on_corruption: str | None = None,
        resilience: ShardResilience | None = None,
    ) -> PartitionedSearchEngine:
        """A (cached) :class:`~repro.search.engine.PartitionedSearchEngine`
        over every shard of this database.

        Tombstones (the live/LSM layer) are handed to the engine, which
        zeroes dead sequences' coarse scores before its one cut and
        presents logical ordinals — results hit-for-hit identical to a
        rebuild over the surviving records.  ``with_evalues=True`` calibrates
        Gumbel parameters once per scheme and attaches E-values to
        every hit.  ``on_corruption`` defaults to the policy the
        database was opened with.  ``resilience`` configures per-shard
        fault tolerance (see
        :class:`~repro.search.resilience.ShardResilience`).  At most
        :data:`ENGINE_CACHE_LIMIT` distinct configurations are retained
        per generation (least recently used dropped).  Thread-safe: concurrent callers
        get the same cached engine for the same configuration.

        In degraded mode a shard whose index was unreadable is handed
        over with no index, and the engine answers every query from
        every live sequence (see :mod:`repro.search.engine`).
        """
        policy = on_corruption or self.on_corruption
        scheme = scheme or ScoringScheme()
        key = (
            coarse_cutoff, scheme, coarse_scorer, fine_mode,
            both_strands, with_evalues, policy, resilience,
        )
        with self._engine_lock:
            snapshot = self._snapshot
            engines = snapshot.engines
            instruments = self._instruments
            engine = engines.get(key)
            if engine is not None:
                engines.move_to_end(key)
                instruments.count("database.engine_cache.hits")
                return engine
            instruments.count("database.engine_cache.misses")
            significance = None
            if with_evalues:
                significance = self._significance.get(scheme)
                if significance is None:
                    significance = calibrate_gapped(scheme)
                    self._significance[scheme] = significance
            engine = PartitionedSearchEngine.over_shards(
                [(shard.index, shard.store) for shard in snapshot.shards],
                scheme=scheme,
                coarse_scorer=coarse_scorer,
                coarse_cutoff=coarse_cutoff,
                fine_mode=fine_mode,
                both_strands=both_strands,
                significance=significance,
                on_corruption=policy,
                resilience=resilience,
                tombstones=snapshot.tombstones,
            )
            live = snapshot.live
            engine.lsm_info = {
                "generation": live.generation,
                "delta_shards": len(live.deltas),
                "tombstones": len(live.tombstones),
            }
            if instruments.enabled:
                engine.set_instruments(instruments)
            engines[key] = engine
            if len(engines) > self.ENGINE_CACHE_LIMIT:
                engines.popitem(last=False)
                instruments.count("database.engine_cache.evictions")
            instruments.set_gauge("database.engine_cache.size", len(engines))
            return engine

    @property
    def cached_engines(self) -> int:
        """Engines the current generation's LRU cache holds."""
        with self._engine_lock:
            return len(self._snapshot.engines)

    def search(
        self,
        query: Sequence | np.ndarray,
        top_k: int = 10,
        deadline: Deadline | None = None,
        **engine_kwargs,
    ) -> SearchReport:
        """Evaluate one query with the default (or overridden) engine:
        ``engine(**engine_kwargs).search(query, top_k, deadline)``.

        ``deadline`` bounds the query's wall clock (see
        :class:`~repro.search.deadline.Deadline`); an expired deadline
        yields a flagged partial report, never an exception.  In
        degraded mode the report is marked ``degraded``.
        """
        return self.engine(**engine_kwargs).search(
            query, top_k=top_k, deadline=deadline
        )

    def search_batch(
        self,
        queries: list[Sequence],
        top_k: int = 10,
        deadline: Deadline | None = None,
        **engine_kwargs,
    ) -> list[SearchReport]:
        """Evaluate a batch of queries in order, reports in query order.

        A ``deadline`` is shared by the whole batch.
        """
        return self.engine(**engine_kwargs).search_batch(
            queries, top_k=top_k, deadline=deadline
        )

    def alignment(
        self,
        query: Sequence | np.ndarray,
        ordinal: int,
        scheme: ScoringScheme | None = None,
    ) -> Alignment:
        """The full local alignment of a query against one answer.

        Raises:
            SearchError: if ``ordinal`` is out of range.
        """
        shard, local = self._snapshot.locate(ordinal)
        codes = query.codes if isinstance(query, Sequence) else (
            np.asarray(query, dtype=np.uint8)
        )
        return local_align(
            codes, shard.store.codes(local), scheme or ScoringScheme()
        )

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        snapshot = self._snapshot
        layout, shards = snapshot.live, snapshot.shards
        live = ""
        if layout.generation:
            live = (
                f" Live: generation {layout.generation}, "
                f"{len(layout.deltas)} delta shard(s), "
                f"{len(layout.tombstones)} tombstone(s)."
            )
        if any(shard.degraded for shard in shards):
            return (
                f"Database at {self.path}: {len(snapshot)} sequences "
                "(DEGRADED: index unreadable, every query scans every "
                "live sequence; run repair to rebuild the index)." + live
            )
        sharded = len(shards) > 1
        vocabulary = sum(shard.index.vocabulary_size for shard in shards)
        return (
            f"Database at {self.path}: {len(snapshot)} sequences, "
            f"{snapshot.total_bases:,} bases"
            + (f" across {len(shards)} shards" if sharded else "")
            + f"; {layout.coarse['backend']} coarse backend, interval "
            f"length {shards[0].index.params.interval_length}, "
            f"{vocabulary:,} indexed intervals"
            + (" (summed)" if sharded else "")
            + f", {layout.total('index_bytes'):,} index bytes, "
            f"{layout.total('store_bytes'):,} store bytes "
            f"({layout.coding} coding)." + live
        )
