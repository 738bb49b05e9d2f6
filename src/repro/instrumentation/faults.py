"""Deterministic fault injectors for durability and recovery testing.

The fault-matrix tests use these helpers to damage on-disk artefacts in
controlled, reproducible ways and then assert that every fault is
caught as a typed :class:`repro.errors.CorruptionError` (or degrades
per the configured policy) — never a hang, a silent wrong answer, or an
uncaught low-level exception.

Three families of injector:

* **byte-level damage** — :func:`truncate_at`, :func:`flip_byte`,
  :func:`flip_bit`, :func:`zero_page` mutate a file in place;
* **section maps** — :func:`index_sections` / :func:`store_sections`
  name each structural region of an index or store file with its byte
  range, so a test can target "the vocabulary table" rather than an
  offset;
* **crash simulation** — :func:`crash_during_replace` and
  :func:`crash_on_fsync` patch the indirection points in
  :mod:`repro.index.atomic` to raise :class:`SimulatedCrash` at the
  torn-rename / durability boundary, proving interrupted builds never
  leave a visible half-written file.
"""

from __future__ import annotations

import contextlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import IndexFormatError

#: Default page size for :func:`zero_page` (one filesystem block).
PAGE_SIZE = 4096


class SimulatedCrash(BaseException):
    """Raised by crash injectors at the simulated power-loss point.

    Derives from :class:`BaseException` so production ``except
    Exception`` cleanup handlers cannot accidentally swallow the
    simulated crash — mirroring a real power loss, which no handler
    survives.
    """


@dataclass(frozen=True)
class FaultReport:
    """What an injector did: file, fault kind, and affected range."""

    path: str
    kind: str
    offset: int
    length: int

    def __str__(self) -> str:
        return (
            f"{self.kind} at [{self.offset}, {self.offset + self.length}) "
            f"in {self.path}"
        )


def truncate_at(path: str | Path, offset: int) -> FaultReport:
    """Truncate ``path`` to ``offset`` bytes (a torn tail write)."""
    path = Path(path)
    size = path.stat().st_size
    offset = max(0, min(offset, size))
    with open(path, "r+b") as handle:
        handle.truncate(offset)
    return FaultReport(str(path), "truncate", offset, size - offset)


def flip_byte(path: str | Path, offset: int, mask: int = 0xFF) -> FaultReport:
    """XOR one byte of ``path`` with ``mask`` (a media bit error)."""
    path = Path(path)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        if not original:
            raise ValueError(f"offset {offset} beyond end of {path}")
        handle.seek(offset)
        handle.write(bytes([original[0] ^ (mask & 0xFF)]))
    return FaultReport(str(path), "flip_byte", offset, 1)


def flip_bit(path: str | Path, bit_offset: int) -> FaultReport:
    """Flip a single bit (bit ``bit_offset`` counted from file start)."""
    return flip_byte(path, bit_offset // 8, 1 << (bit_offset % 8))


def zero_page(
    path: str | Path, offset: int, length: int = PAGE_SIZE
) -> FaultReport:
    """Overwrite a page with zeros (a lost or unwritten disk block)."""
    path = Path(path)
    size = path.stat().st_size
    offset = max(0, min(offset, size))
    length = max(0, min(length, size - offset))
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(bytes(length))
    return FaultReport(str(path), "zero_page", offset, length)


# -- crash simulation at the atomic-write boundary ----------------------


@contextlib.contextmanager
def crash_during_replace() -> Iterator[None]:
    """Simulate power loss during the final rename of an atomic write.

    Inside the context, the first ``os.replace`` issued by
    :mod:`repro.index.atomic` raises :class:`SimulatedCrash`, leaving
    the temporary file unrenamed — the torn-rename scenario.  The
    original entry point is always restored.
    """
    from repro.index import atomic

    original = atomic._replace

    def torn_replace(src: str, dst: str) -> None:
        raise SimulatedCrash(f"simulated crash renaming {src} -> {dst}")

    atomic._replace = torn_replace
    try:
        yield
    finally:
        atomic._replace = original


@contextlib.contextmanager
def crash_on_fsync(after: int = 0) -> Iterator[None]:
    """Simulate power loss at the ``after``-th fsync inside the context.

    ``after=0`` crashes on the first fsync (mid-build, before anything
    is durable); larger values let earlier files land and interrupt a
    later stage of a multi-file build.
    """
    from repro.index import atomic

    original = atomic._fsync
    remaining = [after]

    def crashing_fsync(fd: int) -> None:
        if remaining[0] <= 0:
            raise SimulatedCrash("simulated crash at fsync")
        remaining[0] -= 1
        original(fd)

    atomic._fsync = crashing_fsync
    try:
        yield
    finally:
        atomic._fsync = original


# -- section maps ---------------------------------------------------------


def _walk_prefix(
    path: Path, magic: bytes, versions: tuple[int, ...]
) -> tuple[bytes, int, bytes, dict[str, tuple[int, int]], int]:
    """The sections every format starts with — prefix, header CRC,
    header, count — as ``(data, version, header bytes, sections,
    count)``; the next section starts where ``count`` ends."""
    data = path.read_bytes()
    prefix = struct.Struct("<4sHI")
    if len(data) < prefix.size:
        raise IndexFormatError(f"{path}: too short to map sections")
    found, version, header_length = prefix.unpack_from(data, 0)
    if found != magic:
        raise IndexFormatError(f"{path}: bad magic {found!r}")
    if version not in versions:
        raise IndexFormatError(
            f"{path}: section maps cover format versions {versions}, "
            f"found v{version}"
        )
    sections: dict[str, tuple[int, int]] = {"prefix": (0, prefix.size)}
    cursor = prefix.size
    sections["header_crc"] = (cursor, cursor + 4)
    cursor += 4
    sections["header"] = (cursor, cursor + header_length)
    header = data[cursor : cursor + header_length]
    cursor += header_length
    sections["count"] = (cursor, cursor + 8)
    (count,) = struct.unpack_from("<Q", data, cursor)
    return data, version, header, sections, count


def index_sections(path: str | Path) -> dict[str, tuple[int, int]]:
    """Byte ranges of each structural section of a v2 or v3 ``.rpix``
    file.

    Keys: ``prefix``, ``header_crc``, ``header``, ``count``,
    ``table_crc``, ``table`` (the whole vocabulary: v2's packed rows,
    v3's columns), ``blob``; a v3 file also maps each column inside
    ``table`` as ``interval_id_column``, ``df_column``, ``cf_column``,
    ``length_column`` and ``crc_column``.
    """
    from repro.index.storage import _COLUMNS, _MAGIC, _V2_ROW, _WIDTHS

    data, version, header, sections, count = _walk_prefix(
        Path(path), _MAGIC, (2, 3)
    )
    cursor = sections["count"][1]
    sections["table_crc"] = (cursor, cursor + 4)
    cursor += 4
    start = cursor
    if version == 2:
        cursor += count * _V2_ROW.itemsize
    else:
        widths = json.loads(header)["columns"]
        for name in _COLUMNS:
            end = cursor + count * _WIDTHS[widths[name]].itemsize
            sections[f"{name}_column"] = (cursor, end)
            cursor = end
    sections["table"] = (start, cursor)
    sections["blob"] = (cursor, len(data))
    return sections


def store_sections(path: str | Path) -> dict[str, tuple[int, int]]:
    """Byte ranges of each structural section of a v2 ``.rpsq`` file.

    Keys: ``prefix``, ``header_crc``, ``header``, ``count``,
    ``tables_crc``, ``offsets``, ``record_crcs``, ``payload``.
    """
    from repro.index.store import _MAGIC

    data, _, _, sections, count = _walk_prefix(Path(path), _MAGIC, (2,))
    cursor = sections["count"][1]
    sections["tables_crc"] = (cursor, cursor + 4)
    cursor += 4
    sections["offsets"] = (cursor, cursor + 8 * (count + 1))
    cursor += 8 * (count + 1)
    sections["record_crcs"] = (cursor, cursor + 4 * count)
    cursor += 4 * count
    sections["payload"] = (cursor, len(data))
    return sections
