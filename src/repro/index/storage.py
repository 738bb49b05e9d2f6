"""On-disk index format.

The paper's system keeps its index on disk and reads posting lists on
demand; this module reproduces that arrangement.  Format v2 layout
(the only version read or written)::

    magic "RPIX" | version u16 | header-length u32 | header CRC32
    header JSON
    vocab-count u64 | vocab-table CRC32 | vocabulary table
    postings blob

The header JSON carries the index parameters and the collection's
identifiers/lengths.  The vocabulary table is a packed little-endian
record array — interval id, df, cf, blob offset, blob length, blob
CRC32 — sorted by interval id so lookups are a binary search over a
numpy column.  :class:`DiskIndex` memory-maps the file and resolves a
whole batch of interval ids in one array pass; the decoder then
gathers the lists straight from the map, never materialising the
whole index.

Integrity: the header and vocabulary-table checksums are verified
eagerly when the file is opened; each posting blob's checksum is
verified lazily the first time a resolve touches the list.  Any mismatch
raises :class:`repro.errors.CorruptionError`.  Any other version is
refused with :class:`repro.errors.IndexFormatError`.  All writes go through
:func:`repro.index.atomic.atomic_write`, so a crash mid-write never
leaves a half-written index visible.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from pathlib import Path
from typing import Collection, Iterator

import numpy as np

from repro.errors import CorruptionError, IndexFormatError
from repro.index.atomic import atomic_write
from repro.index.builder import (
    CollectionInfo,
    IndexParameters,
    IndexReader,
    InvertedIndex,
    ResolvedLists,
    VocabEntry,
)

_MAGIC = b"RPIX"
_VERSION = 2
_SUPPORTED_VERSIONS = (2,)
_PREFIX = struct.Struct("<4sHI")
_CRC = struct.Struct("<I")
_COUNT = struct.Struct("<Q")

#: Row: interval id, df, cf, offset into blob, byte length of the list,
#: and the posting blob's CRC32.
_VOCAB_DTYPE = np.dtype(
    [
        ("interval_id", "<u8"),
        ("df", "<u4"),
        ("cf", "<u8"),
        ("offset", "<u8"),
        ("length", "<u4"),
        ("crc", "<u4"),
    ]
)


def _index_header(params: IndexParameters, collection: CollectionInfo) -> bytes:
    return json.dumps(
        {
            "params": params.describe(),
            "identifiers": list(collection.identifiers),
            "lengths": collection.lengths.tolist(),
        }
    ).encode("utf-8")


def write_index(index: InvertedIndex, path: str | Path) -> int:
    """Serialise an in-memory index atomically; returns the bytes written."""
    lists = index.lists
    table = np.empty(index.vocabulary_size, dtype=_VOCAB_DTYPE)
    table["interval_id"] = lists.interval_ids
    table["df"] = lists.dfs
    table["cf"] = lists.cfs
    table["offset"] = lists.offsets
    table["length"] = lists.lengths
    blob = memoryview(lists.buffer)
    table["crc"] = np.fromiter(
        (
            zlib.crc32(blob[offset : offset + length])
            for offset, length in zip(
                lists.offsets.tolist(), lists.lengths.tolist()
            )
        ),
        dtype=np.uint32,
        count=len(table),
    )
    header = _index_header(index.params, index.collection)
    table_bytes = table.tobytes()
    with atomic_write(path) as handle:
        written = handle.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        written += handle.write(_CRC.pack(zlib.crc32(header)))
        written += handle.write(header)
        written += handle.write(_COUNT.pack(len(table)))
        written += handle.write(_CRC.pack(zlib.crc32(table_bytes)))
        written += handle.write(table_bytes)
        written += handle.write(blob)
        return written


class DiskIndex(IndexReader):
    """A read-only index backed by a memory-mapped file.

    Opening verifies the header and vocabulary-table checksums; each
    posting blob is verified lazily on first access.

    Raises:
        IndexFormatError: if the file is not a valid index.
        CorruptionError: if an integrity check fails.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        # The map keeps its own descriptor; the file closes here.
        with open(self._path, "rb") as handle:
            try:
                self._map = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError as exc:
                raise IndexFormatError(
                    f"{self._path}: empty index file"
                ) from exc
        try:
            self._parse()
        except Exception:
            self.close()
            raise

    def _parse(self) -> None:
        view = self._map
        if len(view) < _PREFIX.size:
            raise CorruptionError(
                f"{self._path}: truncated prefix", section="prefix"
            )
        magic, version, header_length = _PREFIX.unpack_from(view, 0)
        if magic != _MAGIC:
            raise IndexFormatError(f"{self._path}: bad magic {magic!r}")
        if version not in _SUPPORTED_VERSIONS:
            raise IndexFormatError(
                f"{self._path}: unsupported version {version}"
            )
        cursor = _PREFIX.size
        if cursor + _CRC.size > len(view):
            raise CorruptionError(
                f"{self._path}: truncated header checksum",
                section="header_crc",
            )
        (header_crc,) = _CRC.unpack_from(view, cursor)
        cursor += _CRC.size
        if cursor + header_length > len(view):
            raise CorruptionError(
                f"{self._path}: truncated header", section="header"
            )
        header_bytes = bytes(view[cursor : cursor + header_length])
        if zlib.crc32(header_bytes) != header_crc:
            raise CorruptionError(
                f"{self._path}: header fails checksum", section="header"
            )
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise IndexFormatError(f"{self._path}: bad header JSON") from exc
        cursor += header_length
        self.params = IndexParameters.from_description(header["params"])
        self.collection = CollectionInfo(
            tuple(header["identifiers"]),
            np.array(header["lengths"], dtype=np.int64),
        )
        if cursor + _COUNT.size > len(view):
            raise CorruptionError(
                f"{self._path}: truncated vocabulary count", section="count"
            )
        (count,) = _COUNT.unpack_from(view, cursor)
        cursor += _COUNT.size
        if cursor + _CRC.size > len(view):
            raise CorruptionError(
                f"{self._path}: truncated vocabulary checksum",
                section="table_crc",
            )
        (table_crc,) = _CRC.unpack_from(view, cursor)
        cursor += _CRC.size
        table_bytes = count * _VOCAB_DTYPE.itemsize
        if cursor + table_bytes > len(view):
            raise CorruptionError(
                f"{self._path}: truncated vocabulary", section="table"
            )
        if zlib.crc32(view[cursor : cursor + table_bytes]) != table_crc:
            raise CorruptionError(
                f"{self._path}: vocabulary table fails checksum",
                section="table",
            )
        # Copy the (small) table out of the map so closing it is safe.
        self._table = np.frombuffer(
            view, dtype=_VOCAB_DTYPE, count=count, offset=cursor
        ).copy()
        self._blob_start = cursor + table_bytes
        blob_length = len(view) - self._blob_start
        ends = self._table["offset"].astype(np.int64) + self._table["length"]
        if count and int(ends.max(initial=0)) > blob_length:
            raise CorruptionError(
                f"{self._path}: truncated postings blob", section="blob"
            )
        self._ids = self._table["interval_id"].astype(np.int64)
        if count and np.any(np.diff(self._ids) <= 0):
            raise CorruptionError(
                f"{self._path}: vocabulary not strictly sorted",
                section="table",
            )
        self._crcs = self._table["crc"]
        self._blob_verified = np.zeros(count, dtype=bool)
        # The whole file as one uint8 array: resolved lists point into
        # it, and the decoder gathers from it directly.
        self._bytes = np.frombuffer(view, dtype=np.uint8)

    def close(self) -> None:
        """Release the mapping.

        A resolved list still alive (say, in a traceback) holds a view
        of the map; the mapping then goes when that view does.
        """
        self._bytes = None
        if getattr(self, "_map", None) is not None:
            try:
                self._map.close()
            except BufferError:
                pass  # unmapped when the last view is released
            self._map = None  # type: ignore[assignment]

    def __enter__(self) -> "DiskIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _verify_blob(self, slot: int) -> None:
        """Check a posting blob's CRC32 on its first touch."""
        if self._blob_verified[slot]:
            return
        start = self._blob_start + int(self._table["offset"][slot])
        data = self._bytes[start : start + int(self._table["length"][slot])]
        if zlib.crc32(data) != int(self._crcs[slot]):
            interval = int(self._ids[slot])
            raise CorruptionError(
                f"{self._path}: posting list for interval {interval} "
                "fails checksum",
                interval_id=interval,
                section="blob",
            )
        self._blob_verified[slot] = True

    def _resolve(
        self, interval_ids: np.ndarray, skip: Collection[int]
    ) -> ResolvedLists:
        """Resolve a whole id array in one pass: one binary search over
        the sorted ids, the table's columns gathered for the found
        slots, and each found blob's CRC checked on its first touch, in
        request order (the first damaged one raises)."""
        self.instruments.count("index.storage.resolves")
        count = self._ids.shape[0]
        if not count:
            return ResolvedLists.from_entries(
                interval_ids, [None] * interval_ids.shape[0]
            )
        slots = np.minimum(np.searchsorted(self._ids, interval_ids), count - 1)
        found = self._ids[slots] == interval_ids
        if skip:
            found &= ~np.isin(interval_ids, list(skip))
        for slot in slots[found & ~self._blob_verified[slots]].tolist():
            self._verify_blob(slot)
        rows = self._table[slots]
        # Absent slots keep a neighbour's offset but read zero entries
        # from zero bytes.
        return ResolvedLists(
            interval_ids,
            np.multiply(rows["df"], found, dtype=np.int64),
            np.multiply(rows["cf"], found, dtype=np.int64),
            np.add(rows["offset"], self._blob_start, dtype=np.int64),
            np.multiply(rows["length"], found, dtype=np.int64),
            self._bytes,
        )

    def lookup_entry(self, interval_id: int) -> VocabEntry | None:
        return self._resolve(
            np.array([interval_id], dtype=np.int64), ()
        ).entry(0)

    def interval_ids(self) -> Iterator[int]:
        return iter(int(value) for value in self._ids)

    @property
    def vocabulary_size(self) -> int:
        return int(self._ids.shape[0])

    @property
    def pointer_count(self) -> int:
        return int(self._table["df"].sum())

    @property
    def compressed_bytes(self) -> int:
        return int(self._table["length"].sum())

    def verify(self) -> list[str]:
        """Check every posting blob's checksum; returns the problems.

        An empty list means the file is fully intact.
        """
        issues: list[str] = []
        for slot in range(self._ids.shape[0]):
            try:
                self._verify_blob(slot)
            except CorruptionError as exc:
                issues.append(str(exc))
        return issues


def read_index(path: str | Path) -> DiskIndex:
    """Open an on-disk index for reading."""
    return DiskIndex(path)
