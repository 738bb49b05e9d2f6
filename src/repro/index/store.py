"""Sequence stores: where the fine search fetches residues from.

The paper's partitioned search touches only the candidate sequences the
coarse phase selects, so sequences must be retrievable independently of
storage order.  The on-disk store keeps an offset table plus per-record
payloads coded either *raw* (one code byte per base) or *direct*
(2-bit packed with a wildcard side list — the cino scheme measured in
E8).  An in-memory source with the same interface backs small runs and
tests.

The format (v2, the only version read or written) carries integrity
data: a header checksum and an offset/record checksum block verified
eagerly at open, plus a CRC32 per record payload verified lazily on
first access.  Mismatches raise :class:`repro.errors.CorruptionError`;
any other version raises :class:`repro.errors.IndexFormatError`.
Writes are atomic (see :mod:`repro.index.atomic`).
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Sequence as TypingSequence

import numpy as np

from repro.compression.direct import decode_sequence, encode_sequences
from repro.errors import (
    CorruptionError,
    IndexFormatError,
    IndexLookupError,
)
from repro.index.atomic import atomic_write
from repro.instrumentation.instruments import NULL_INSTRUMENTS, coalesce
from repro.sequences.record import Sequence

_MAGIC = b"RPSQ"
_VERSION = 2
_SUPPORTED_VERSIONS = (2,)
_PREFIX = struct.Struct("<4sHI")
_CRC = struct.Struct("<I")

#: Supported payload codings.
CODINGS = ("raw", "direct")


class SequenceSource(ABC):
    """Random access to the collection's sequences by ordinal."""

    @property
    def instruments(self):
        """Observability sink (shared no-op until attached)."""
        return getattr(self, "_instruments", NULL_INSTRUMENTS)

    def set_instruments(self, instruments) -> None:
        """Attach an :class:`~repro.instrumentation.Instruments` sink.

        Disk-backed sources report fetch traffic
        (``store.records_fetched`` / ``store.bytes_read``) and lazy
        integrity work (``store.checksums_verified``).  Passing ``None``
        detaches (reverts to the shared no-op).
        """
        self._instruments = coalesce(instruments)

    @abstractmethod
    def __len__(self) -> int:
        """Number of sequences."""

    @abstractmethod
    def identifier(self, ordinal: int) -> str:
        """Identifier of the sequence at ``ordinal``."""

    @abstractmethod
    def codes(self, ordinal: int) -> np.ndarray:
        """Coded residues of the sequence at ``ordinal``."""

    def record(self, ordinal: int) -> Sequence:
        """Full :class:`Sequence` record at ``ordinal``."""
        return Sequence(self.identifier(ordinal), self.codes(ordinal))

    def _check(self, ordinal: int) -> None:
        if not 0 <= ordinal < len(self):
            raise IndexLookupError(
                f"sequence ordinal {ordinal} out of range 0..{len(self) - 1}"
            )


class MemorySequenceSource(SequenceSource):
    """A list of records presented through the source interface."""

    def __init__(self, sequences: TypingSequence[Sequence]) -> None:
        self._sequences = list(sequences)

    def __len__(self) -> int:
        return len(self._sequences)

    def identifier(self, ordinal: int) -> str:
        self._check(ordinal)
        return self._sequences[ordinal].identifier

    def codes(self, ordinal: int) -> np.ndarray:
        self._check(ordinal)
        return self._sequences[ordinal].codes

    def record(self, ordinal: int) -> Sequence:
        self._check(ordinal)
        return self._sequences[ordinal]


def write_store(
    sequences: TypingSequence[Sequence],
    path: str | Path,
    coding: str = "direct",
) -> int:
    """Serialise a collection atomically; returns the bytes written.

    Raises:
        IndexFormatError: if ``coding`` is unknown.
    """
    if coding not in CODINGS:
        raise IndexFormatError(
            f"unknown coding {coding!r}; expected one of {CODINGS}"
        )
    if coding == "direct":
        payload, bounds = encode_sequences(
            [record.codes for record in sequences]
        )
    else:
        payload = b"".join(record.codes.tobytes() for record in sequences)
        bounds = np.zeros(len(sequences) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(
                (len(record) for record in sequences), dtype=np.int64,
                count=len(sequences),
            ),
            out=bounds[1:],
        )
    view = memoryview(payload)
    crcs = np.fromiter(
        (
            zlib.crc32(view[start:stop])
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ),
        dtype="<u4",
        count=len(sequences),
    )

    header = json.dumps(
        {
            "coding": coding,
            "identifiers": [record.identifier for record in sequences],
            "descriptions": [record.description for record in sequences],
        }
    ).encode("utf-8")
    with atomic_write(path) as handle:
        written = handle.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        written += handle.write(_CRC.pack(zlib.crc32(header)))
        written += handle.write(header)
        written += handle.write(struct.pack("<Q", len(sequences)))
        tables = bounds.astype("<u8").tobytes() + crcs.tobytes()
        written += handle.write(_CRC.pack(zlib.crc32(tables)))
        written += handle.write(tables)
        written += handle.write(payload)
        return written


class SequenceStore(SequenceSource):
    """Memory-mapped random-access store written by :func:`write_store`.

    Raises:
        IndexFormatError: if the file is not a valid store.
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
                    f"{self._path}: empty store file"
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
            raise IndexFormatError(f"{self._path}: unsupported version {version}")
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
        self.coding = str(header["coding"])
        if self.coding not in CODINGS:
            raise IndexFormatError(f"{self._path}: unknown coding {self.coding!r}")
        self._identifiers = list(header["identifiers"])
        self._descriptions = list(header.get("descriptions", []))
        if cursor + 8 > len(view):
            raise CorruptionError(
                f"{self._path}: truncated record count", section="count"
            )
        (count,) = struct.unpack_from("<Q", view, cursor)
        cursor += 8
        if count != len(self._identifiers):
            raise CorruptionError(
                f"{self._path}: header lists {len(self._identifiers)} "
                f"identifiers but store holds {count} records",
                section="count",
            )
        if cursor + _CRC.size > len(view):
            raise CorruptionError(
                f"{self._path}: truncated table checksum",
                section="tables_crc",
            )
        (tables_crc,) = _CRC.unpack_from(view, cursor)
        cursor += _CRC.size
        offsets_bytes = 8 * (count + 1)
        crcs_bytes = 4 * count
        if cursor + offsets_bytes + crcs_bytes > len(view):
            raise CorruptionError(
                f"{self._path}: truncated offset table", section="offsets"
            )
        if (
            zlib.crc32(view[cursor : cursor + offsets_bytes + crcs_bytes])
            != tables_crc
        ):
            raise CorruptionError(
                f"{self._path}: offset/checksum tables fail checksum",
                section="offsets",
            )
        # Copy the (small) tables out of the map so closing is safe.
        self._offsets = np.frombuffer(
            view, dtype="<u8", count=count + 1, offset=cursor
        ).copy()
        self._record_crcs = np.frombuffer(
            view, dtype="<u4", count=count, offset=cursor + offsets_bytes
        ).copy()
        self._record_verified = np.zeros(count, dtype=bool)
        self._payload_start = cursor + offsets_bytes + crcs_bytes
        if count and np.any(np.diff(self._offsets.astype(np.int64)) < 0):
            raise CorruptionError(
                f"{self._path}: offset table not monotonic", section="offsets"
            )
        if self._payload_start + int(self._offsets[-1]) > len(view):
            raise CorruptionError(
                f"{self._path}: truncated payload", section="payload"
            )

    def close(self) -> None:
        """Release the mapping."""
        if getattr(self, "_map", None) is not None:
            self._map.close()
            self._map = None  # type: ignore[assignment]

    def __enter__(self) -> "SequenceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._identifiers)

    def identifier(self, ordinal: int) -> str:
        self._check(ordinal)
        return self._identifiers[ordinal]

    def _payload(self, ordinal: int) -> bytes:
        start = self._payload_start + int(self._offsets[ordinal])
        end = self._payload_start + int(self._offsets[ordinal + 1])
        data = bytes(self._map[start:end])
        instruments = self.instruments
        instruments.count("store.records_fetched")
        instruments.count("store.bytes_read", len(data))
        if not self._record_verified[ordinal]:
            instruments.count("store.checksums_verified")
            if zlib.crc32(data) != int(self._record_crcs[ordinal]):
                raise CorruptionError(
                    f"{self._path}: record {ordinal} "
                    f"({self._identifiers[ordinal]!r}) fails checksum",
                    ordinal=ordinal,
                    section="payload",
                )
            self._record_verified[ordinal] = True
        return data

    def verify(self) -> list[str]:
        """Check every record payload's checksum; returns the problems.

        An empty list means the store is fully intact.
        """
        issues: list[str] = []
        for ordinal in range(len(self)):
            try:
                self._payload(ordinal)
            except CorruptionError as exc:
                issues.append(str(exc))
        return issues

    def codes(self, ordinal: int) -> np.ndarray:
        self._check(ordinal)
        payload = self._payload(ordinal)
        if self.coding == "direct":
            return decode_sequence(payload)
        return np.frombuffer(payload, dtype=np.uint8).copy()

    def record(self, ordinal: int) -> Sequence:
        self._check(ordinal)
        description = (
            self._descriptions[ordinal] if self._descriptions else ""
        )
        return Sequence(
            self._identifiers[ordinal], self.codes(ordinal), description
        )

    @property
    def payload_bytes(self) -> int:
        """Total coded payload size (excludes headers and offsets)."""
        return int(self._offsets[-1])


def read_store(path: str | Path) -> SequenceStore:
    """Open an on-disk sequence store for reading."""
    return SequenceStore(path)
