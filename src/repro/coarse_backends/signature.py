"""COBS-style bit-sliced signature coarse backend.

Every document gets a Bloom filter over its distinct k-mers; documents
are grouped into blocks of ``docs_per_block`` and each block's filters
stand side by side as a bit matrix of shape ``(rows, docs)`` — one row
per Bloom bit position, one column per document — packed with
:func:`numpy.packbits` along the document axis.  A query looks up each
of its distinct k-mers by AND-ing the k-mer's ``hashes`` rows into a
membership bitmask and accumulating per-document containment counts,
so coarse scoring is a handful of row fetches per k-mer instead of a
posting-list decode.

The scan is one gather per query, not a loop over blocks: the query's
distinct ids are hashed once, one broadcast ``% rows`` places every
probe in every block, the row words are gathered from a zero-copy view
of the mapped payload, and their bits are counted in byte lanes
(``docs/KERNELS.md``).  Blocks are scanned in steps of about
:data:`SCAN_WORDS` row words, and a bounded deadline is checked between
steps.

Each block sizes its own matrix from the largest document it holds::

    rows = ceil(-n_max * hashes / ln(1 - fpr ** (1 / hashes)))

(the classic Bloom sizing, inverted for the bit count that yields the
target false-positive rate ``fpr`` at ``n_max`` insertions), so sparse
blocks stay small and a repetitive collection — many near-duplicate
documents sharing their k-mer sets — costs little more than one
document's filter per block.

On-disk format (``signatures.rpsg``, v2)::

    magic "RPSG" | version u16 | header-length u32 | header CRC32
    header JSON
    packed block matrices, concatenated

The header JSON carries the index parameters, the backend parameters,
the collection's sequence lengths, and a per-block table (document
base, count, rows, payload offset/length, CRC32).  A v1 file is the
same with the identifiers in the header too; it still opens, and the
identifiers are not read (the store carries them).  The header checksum
is verified eagerly at open; each block's payload checksum is verified
lazily the first time the block is scanned.  All writes go through
:func:`repro.index.atomic.atomic_write`.
"""

from __future__ import annotations

import json
import logging
import math
import mmap
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence as TypingSequence

import numpy as np

from repro.coarse_backends.base import ARTIFACT_NAMES, CoarseBackend
from repro.errors import (
    CorruptionError,
    IndexFormatError,
    IndexParameterError,
    SearchError,
)
from repro.index.atomic import atomic_write
from repro.index.builder import CollectionInfo, IndexParameters
from repro.index.intervals import IntervalExtractor
from repro.instrumentation.instruments import NULL_INSTRUMENTS, coalesce
from repro.search.deadline import Deadline, ensure_deadline
from repro.search.results import CoarseCandidate, top_candidates
from repro.sequences.record import Sequence

_LOG = logging.getLogger(__name__)

_MAGIC = b"RPSG"
_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
_PREFIX = struct.Struct("<4sHI")
_CRC = struct.Struct("<I")

#: Default backend parameters (see :meth:`SignatureBackend.normalise_params`).
DEFAULT_SIGNATURE_PARAMS = {
    "false_positive_rate": 0.3,
    "hashes": 1,
    "docs_per_block": 64,
}


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, vectorised over uint64 (wrapping)."""
    values = values + np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(
        0xBF58476D1CE4E5B9
    )
    values = (values ^ (values >> np.uint64(27))) * np.uint64(
        0x94D049BB133111EB
    )
    return values ^ (values >> np.uint64(31))


def signature_probes(interval_ids: np.ndarray, hashes: int) -> np.ndarray:
    """Bloom probes for each interval id, before the ``% rows`` that
    places them in a block: shape ``(ids, hashes)``, uint64.

    Double hashing (Kirsch & Mitzenmacher): two splitmix64 mixes give
    ``h1`` and an odd ``h2``, and probe ``i`` is ``h1 + i * h2``
    (wrapping) — ``hashes`` probes per k-mer from two mixes.  A query
    hashes its ids once and takes each block's modulo from the probes.
    """
    ids = np.ascontiguousarray(interval_ids, dtype=np.uint64)
    h1 = _splitmix64(ids)
    h2 = _splitmix64(ids ^ np.uint64(0xA5A5_A5A5_A5A5_A5A5)) | np.uint64(1)
    steps = np.arange(hashes, dtype=np.uint64)
    return h1[:, None] + steps[None, :] * h2[:, None]


def signature_rows(
    interval_ids: np.ndarray, hashes: int, rows: int
) -> np.ndarray:
    """Bloom row indices for each interval id in a block of ``rows``
    rows: :func:`signature_probes` ``% rows``, shape ``(ids, hashes)``."""
    return (signature_probes(interval_ids, hashes) % np.uint64(rows)).astype(
        np.int64
    )


def slice_rows_for(n_max: int, hashes: int, false_positive_rate: float) -> int:
    """Bloom bit-count sizing a block's matrix for its largest document."""
    if n_max <= 0:
        return 8
    rate = false_positive_rate ** (1.0 / hashes)
    rows = math.ceil(-(n_max * hashes) / math.log(1.0 - rate))
    return max(8, int(rows))


#: Bases :func:`write_signature` extracts per pass (whole blocks, so a
#: larger block is a pass of its own); bounds the build's temporaries.
SIGN_CHUNK = 1 << 18


#: Row words (64 documents each) one step of a query's scan gathers:
#: whole blocks, so a wider block is a step of its own.  The deadline is
#: checked between steps, and the step bounds the scan's temporaries.
SCAN_WORDS = 64

#: Query ids per byte-lane count: a lane sums one bit of each id's
#: word into one byte, so it must not see more than 255 of them.
LANE_IDS = 255

# Lane ``t`` counts bit ``7 - t`` of every byte: packbits is MSB-first,
# so that bit is document ``8 * byte + t`` of the word's 64.
_LANE_SHIFTS = np.arange(7, -1, -1, dtype=np.uint64)
_LANE_BITS = np.uint64(0x0101_0101_0101_0101)
_LANES = np.arange(64)


def _runs(ends: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """``(first, stop)`` runs of whole blocks covering every block in
    order, given each block's cumulative size ``ends``: a run is one
    block, or as many as fit in ``budget``."""
    first = 0
    while first < ends.shape[0]:
        before = int(ends[first - 1]) if first else 0
        stop = max(
            int(np.searchsorted(ends, before + budget, side="right")),
            first + 1,
        )
        yield first, stop
        first = stop


def _block_passes(
    lengths: np.ndarray, docs_per_block: int
) -> Iterator[tuple[int, int]]:
    """``(first, stop)`` record ranges of whole blocks holding about
    :data:`SIGN_CHUNK` bases each, covering every record in order."""
    count = lengths.shape[0]
    block_stops = np.minimum(
        np.arange(docs_per_block, count + docs_per_block, docs_per_block),
        count,
    )
    ends = np.cumsum(lengths)[block_stops - 1]
    for first, stop in _runs(ends, SIGN_CHUNK):
        yield first * docs_per_block, int(block_stops[stop - 1])


def write_signature(
    records: TypingSequence[Sequence],
    path: str | Path,
    params: IndexParameters | None = None,
    backend_params: dict | None = None,
) -> int:
    """Build and atomically write a signature file; returns bytes written.

    Documents are signed over their *distinct* k-mers (extracted with
    the index parameters' interval length and stride), so the filter
    answers containment, not frequency — the coarse score is the count
    of query k-mers a document (probably) contains.
    """
    params = params or IndexParameters()
    sig = dict(DEFAULT_SIGNATURE_PARAMS)
    sig.update(backend_params or {})
    hashes = int(sig["hashes"])
    docs_per_block = int(sig["docs_per_block"])
    fpr = float(sig["false_positive_rate"])
    extractor = IntervalExtractor(params.interval_length, params.stride)
    collection = CollectionInfo.from_sequences(records)

    blocks: list[dict] = []
    payloads: list[bytes] = []
    offset = 0
    for first, stop in _block_passes(collection.lengths, docs_per_block):
        ids, owners = extractor.extract_collection(
            [record.codes for record in records[first:stop]]
        )
        # One sort gives every record's distinct ids, grouped by record.
        keys = np.sort((owners.astype(np.uint64) << np.uint64(32)) | ids)
        first_seen = np.ones(keys.shape[0], dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first_seen[1:])
        keys = keys[first_seen]
        ids = keys & np.uint64(0xFFFF_FFFF)
        owners = (keys >> np.uint64(32)).astype(np.int64)
        distinct = np.bincount(owners, minlength=stop - first)
        for start in range(0, stop - first, docs_per_block):
            end = min(start + docs_per_block, stop - first)
            low, high = np.searchsorted(owners, (start, end))
            rows = slice_rows_for(
                int(distinct[start:end].max()), hashes, fpr
            )
            matrix = np.zeros((rows, end - start), dtype=bool)
            matrix[
                signature_rows(ids[low:high], hashes, rows).ravel(),
                np.repeat(owners[low:high] - start, hashes),
            ] = True
            payload = np.packbits(matrix, axis=1).tobytes()
            blocks.append(
                {
                    "base": first + start,
                    "docs": end - start,
                    "rows": rows,
                    "offset": offset,
                    "length": len(payload),
                    "crc": zlib.crc32(payload),
                }
            )
            payloads.append(payload)
            offset += len(payload)

    header = json.dumps(
        {
            "params": params.describe(),
            "signature": {
                "false_positive_rate": fpr,
                "hashes": hashes,
                "docs_per_block": docs_per_block,
            },
            "lengths": collection.lengths.tolist(),
            "blocks": blocks,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    with atomic_write(path) as handle:
        written = handle.write(_PREFIX.pack(_MAGIC, _VERSION, len(header)))
        written += handle.write(_CRC.pack(zlib.crc32(header)))
        written += handle.write(header)
        for payload in payloads:
            written += handle.write(payload)
    return written


@dataclass(frozen=True)
class _Block:
    base: int
    docs: int
    rows: int
    offset: int
    length: int
    crc: int


class SignatureIndex:
    """A read-only signature file, memory-mapped.

    Duck-types the reader surface the engines touch (``params`` /
    ``collection`` / ``vocabulary_size`` / ``verify`` / instruments /
    ``close``); it is *not* an :class:`~repro.index.builder.IndexReader`
    — there are no posting lists to look up.

    Raises:
        IndexFormatError: if the file is not a valid signature file.
        CorruptionError: if the header checksum fails.
    """

    coarse_backend = "signature"

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
                    f"{self._path}: empty signature file"
                ) from exc
        try:
            self._parse()
        except Exception:
            self.close()
            raise

    def _parse(self) -> None:
        view = self._map
        if len(view) < _PREFIX.size + _CRC.size:
            raise IndexFormatError(f"{self._path}: truncated signature file")
        magic, version, header_length = _PREFIX.unpack_from(view, 0)
        if magic != _MAGIC:
            raise IndexFormatError(
                f"{self._path}: not a signature file (magic {magic!r})"
            )
        if version not in _SUPPORTED_VERSIONS:
            raise IndexFormatError(
                f"{self._path}: unsupported signature version {version}"
            )
        cursor = _PREFIX.size
        (expected_crc,) = _CRC.unpack_from(view, cursor)
        cursor += _CRC.size
        header_bytes = bytes(view[cursor : cursor + header_length])
        if len(header_bytes) != header_length:
            raise IndexFormatError(f"{self._path}: truncated header")
        if zlib.crc32(header_bytes) != expected_crc:
            raise CorruptionError(
                f"{self._path}: header checksum mismatch", section="header"
            )
        try:
            header = json.loads(header_bytes)
            self.params = IndexParameters.from_description(header["params"])
            self.signature_params = dict(header["signature"])
            self.collection = CollectionInfo(
                np.array(header["lengths"], dtype=np.int64)
            )
            self._blocks = tuple(
                _Block(
                    base=int(block["base"]),
                    docs=int(block["docs"]),
                    rows=int(block["rows"]),
                    offset=int(block["offset"]),
                    length=int(block["length"]),
                    crc=int(block["crc"]),
                )
                for block in header["blocks"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"{self._path}: malformed signature header: {exc}"
            ) from exc
        self._payload_start = cursor + header_length
        expected_base = 0
        for slot, block in enumerate(self._blocks):
            if block.base != expected_base or block.docs < 1:
                raise IndexFormatError(
                    f"{self._path}: block {slot} covers documents "
                    f"{block.base}..{block.base + block.docs - 1}, expected "
                    f"a contiguous layout from {expected_base}"
                )
            width = (block.docs + 7) // 8
            if block.length != block.rows * width:
                raise IndexFormatError(
                    f"{self._path}: block {slot} payload is {block.length} "
                    f"bytes, expected {block.rows * width}"
                )
            expected_base += block.docs
        if expected_base != self.collection.num_sequences:
            raise IndexFormatError(
                f"{self._path}: blocks cover {expected_base} documents but "
                f"the header lists {self.collection.num_sequences}"
            )
        if self._blocks:
            last = self._blocks[-1]
            end = self._payload_start + last.offset + last.length
            if end > len(view):
                raise IndexFormatError(
                    f"{self._path}: payload truncated ({len(view)} bytes, "
                    f"blocks need {end})"
                )
        self._verified = np.zeros(len(self._blocks), dtype=bool)
        self._lay_out_scan()

    def _lay_out_scan(self) -> None:
        """Per-word gather tables and the scan's steps of whole blocks.

        A block row of ``width`` bytes is ``ceil(width / 8)`` words of
        up to 64 documents.  Word ``j`` holds ``n = min(8, width - 8j)``
        bytes from ``p = row start + 8j``; it is read as the little-endian
        ``<u8`` that *ends* at ``p + n`` and shifted right ``64 - 8n``
        bits, which zero-pads it and never reads past the row's end.
        (``p + n - 8`` cannot precede the file: the payload follows the
        header.)
        """
        # Every 8-byte window of the file, one ``<u8`` per byte offset:
        # a zero-copy, unaligned view the gather reads rows from.
        self._words = np.ndarray(
            (len(self._map) - 7,), dtype="<u8", buffer=self._map, strides=(1,)
        )
        docs = np.array([b.docs for b in self._blocks], dtype=np.int64)
        widths = (docs + 7) // 8
        counts = (widths + 7) // 8
        owner = np.repeat(np.arange(len(self._blocks)), counts)
        word_starts = np.concatenate(([0], np.cumsum(counts)))
        word = np.arange(word_starts[-1]) - word_starts[owner]
        filled = np.minimum(8, widths[owner] - 8 * word)
        starts = np.array(
            [self._payload_start + b.offset for b in self._blocks],
            dtype=np.int64,
        )
        rows = np.array([b.rows for b in self._blocks], dtype=np.uint64)
        self._word_rows = rows[owner]
        self._word_stride = widths[owner]
        self._word_base = starts[owner] + 8 * word + filled - 8
        self._word_shift = (64 - 8 * filled).astype(np.uint64)
        self._word_docs = np.minimum(64, docs[owner] - 64 * word)
        self._word_starts = word_starts
        #: ``(first, stop)`` block ranges of one scan step each, in order.
        self.scan_steps: tuple[tuple[int, int], ...] = tuple(
            _runs(word_starts[1:], SCAN_WORDS)
        )

    # -- reader surface ---------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def vocabulary_size(self) -> int:
        """Total Bloom rows across blocks (the signature's "vocabulary")."""
        return int(sum(block.rows for block in self._blocks))

    @property
    def signature_bytes(self) -> int:
        """Packed payload bytes (the coarse evidence, header excluded)."""
        return int(sum(block.length for block in self._blocks))

    @property
    def instruments(self):
        return getattr(self, "_instruments", NULL_INSTRUMENTS)

    def set_instruments(self, instruments) -> None:
        self._instruments = coalesce(instruments)

    def block(self, slot: int) -> _Block:
        return self._blocks[slot]

    def unverified_blocks(self, first: int, stop: int) -> np.ndarray:
        """Slots in ``first..stop-1`` whose checksum is not yet verified."""
        return first + np.flatnonzero(~self._verified[first:stop])

    def verify_block(self, slot: int) -> None:
        """Check block ``slot``'s payload checksum (once; later calls
        return at once).

        Raises:
            CorruptionError: if the payload fails its checksum.
        """
        if self._verified[slot]:
            return
        block = self._blocks[slot]
        start = self._payload_start + block.offset
        if zlib.crc32(self._map[start : start + block.length]) != block.crc:
            raise CorruptionError(
                f"{self._path}: signature block {slot} (documents "
                f"{block.base}..{block.base + block.docs - 1}) failed "
                "its checksum",
                section=f"block:{slot}",
            )
        self._verified[slot] = True

    def membership_counts(
        self, probes: np.ndarray, first: int, stop: int
    ) -> np.ndarray:
        """Per-document count of query k-mers the filters of blocks
        ``first..stop-1`` contain, for documents ``blocks[first].base``
        onwards (shape ``(docs,)``, int64).

        ``probes`` is :func:`signature_probes` of the query's distinct
        ids.  One broadcast ``% rows`` places every probe in every block,
        one gather reads the row words from the map, the ``hashes`` words
        of each id are AND-ed into its membership mask, and the masks'
        bits are counted in byte lanes, at most :data:`LANE_IDS` ids at a
        time.  Checksums are the caller's: see :meth:`verify_block`.
        """
        low, high = self._word_starts[first], self._word_starts[stop]
        width = high - low
        # (hashes, words, ids): each word's ids contiguous for the sums.
        rows = probes.T[:, None, :] % self._word_rows[low:high, None]
        positions = rows.view(np.int64) * self._word_stride[low:high, None]
        positions += self._word_base[low:high, None]
        gathered = self._words[positions]
        masks = gathered[0]
        for more in gathered[1:]:
            masks &= more
        masks >>= self._word_shift[low:high, None]
        # counts[t, w, i]: bit 7 - t of byte i of word w, summed over ids.
        counts = np.zeros((8, width, 8), dtype=np.int64)
        lanes = np.empty((8, width), dtype=np.uint64)
        spread = np.empty((width, min(LANE_IDS, masks.shape[1])), np.uint64)
        for start in range(0, masks.shape[1], LANE_IDS):
            chunk = masks[:, start : start + LANE_IDS]
            bits = spread[:, : chunk.shape[1]]
            for lane, shift in enumerate(_LANE_SHIFTS):
                np.right_shift(chunk, shift, out=bits)
                bits &= _LANE_BITS
                np.add.reduce(bits, axis=1, out=lanes[lane])
            counts += lanes.astype("<u8", copy=False).view(np.uint8).reshape(
                8, width, 8
            )
        # Document 8i + t of word w's 64.
        counts = counts.transpose(1, 2, 0).reshape(width, 64)
        return counts[_LANES < self._word_docs[low:high, None]]

    def verify(self) -> list[str]:
        """Check every block's checksum; returns the problems found."""
        issues: list[str] = []
        for slot in range(len(self._blocks)):
            try:
                self.verify_block(slot)
            except CorruptionError as exc:
                issues.append(str(exc))
        return issues

    def close(self) -> None:
        """Release the mapping.

        The gather view goes first: an exported buffer keeps
        :meth:`mmap.mmap.close` from unmapping.
        """
        self._words = None
        if getattr(self, "_map", None) is not None:
            try:
                self._map.close()
            except BufferError:
                pass  # unmapped when the last view is released
            self._map = None

    def __enter__(self) -> "SignatureIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SignatureRanker:
    """Coarse phase over a :class:`SignatureIndex`.

    Scores are distinct-query-k-mer containment counts; :meth:`scores`
    and :meth:`rank` keep :class:`~repro.search.coarse.CoarseRanker`'s
    contract exactly, so the cut, the fine phase and the sharded merge
    are backend-agnostic.

    A query is hashed once and scanned in one gather per step of
    whole blocks (:attr:`SignatureIndex.scan_steps`).  A bounded
    deadline is checked between steps: once expired the remaining
    blocks contribute no evidence and the scores so far are the
    (partial) answer.  Each block's checksum is verified the first
    time a step reaches it.  Under ``on_corruption="skip"`` a block
    that fails it is quarantined (logged, counted, scored zero) and
    scanning continues; any other policy propagates the
    :class:`~repro.errors.CorruptionError` (the engine's
    ``"fallback"`` then answers the query in degraded mode).

    Raises:
        SearchError: the signature backend ranks by containment counts
            only, so any scorer other than ``"count"`` is rejected.
    """

    def __init__(
        self,
        index: SignatureIndex,
        scorer: str = "count",
        on_corruption: str = "raise",
    ) -> None:
        if scorer != "count":
            raise SearchError(
                "the signature backend supports the 'count' coarse scorer "
                f"only, got {scorer!r}"
            )
        self.index = index
        self.on_corruption = on_corruption
        self.instruments = NULL_INSTRUMENTS
        #: Block slots quarantined as corrupt (under ``"skip"``).
        self.quarantined: set[int] = set()
        # Query k-mers are always extracted at stride 1, mirroring the
        # inverted ranker: a sparsely signed collection is still hit as
        # long as some query window aligns with a signed window.
        self._extractor = IntervalExtractor(
            index.params.interval_length, stride=1
        )

    def set_instruments(self, instruments) -> None:
        self.instruments = coalesce(instruments)

    def scores(
        self, query_codes: np.ndarray, deadline: Deadline | None = None
    ) -> np.ndarray:
        """Containment count per document (0 = no evidence).

        Raises:
            CorruptionError: on a damaged block, unless the policy is
                ``"skip"``.
        """
        deadline = ensure_deadline(deadline)
        index = self.index
        scores = np.zeros(index.collection.num_sequences)
        ids = self._extractor.extract_distinct(query_codes)
        if not ids.shape[0]:
            return scores
        self.instruments.count("coarse.query_intervals", int(ids.shape[0]))
        probes = signature_probes(ids, index.signature_params["hashes"])
        scanned = 0
        for first, stop in index.scan_steps:
            if deadline.bounded and deadline.expired():
                break
            skipped = self._verify(first, stop)
            low = index.block(first).base
            last = index.block(stop - 1)
            scores[low : last.base + last.docs] = index.membership_counts(
                probes, first, stop
            )
            for slot in skipped:
                block = index.block(slot)
                scores[block.base : block.base + block.docs] = 0
            scanned += stop - first - len(skipped)
        self.instruments.count("signature.blocks_scanned", scanned)
        return scores

    def _verify(self, first: int, stop: int) -> list[int]:
        """Verify the step's blocks not yet checked; returns the step's
        quarantined slots (a corrupt block joins them under ``"skip"``).

        Raises:
            CorruptionError: on a damaged block, unless the policy is
                ``"skip"``.
        """
        skipped = []
        for slot in self.index.unverified_blocks(first, stop).tolist():
            if slot not in self.quarantined:
                try:
                    self.index.verify_block(slot)
                    continue
                except CorruptionError as exc:
                    if self.on_corruption != "skip":
                        raise
                    _LOG.warning(
                        "quarantining corrupt signature block %d: %s",
                        slot, exc,
                    )
                    self.quarantined.add(slot)
                    self.instruments.count("signature.quarantined_blocks")
            skipped.append(slot)
        return skipped

    def rank(
        self,
        query_codes: np.ndarray,
        cutoff: int,
        deadline: Deadline | None = None,
    ) -> list[CoarseCandidate]:
        """The ``cutoff`` best-scoring documents, best first:
        :func:`~repro.search.results.top_candidates` of :meth:`scores`.

        Raises:
            SearchError: if ``cutoff`` is not positive.
            CorruptionError: on a damaged block, unless the policy is
                ``"skip"``.
        """
        return top_candidates(self.scores(query_codes, deadline), cutoff)


class SignatureBackend(CoarseBackend):
    name = "signature"
    artifact = ARTIFACT_NAMES["signature"]

    def normalise_params(self, params: dict | None) -> dict:
        """Defaults applied, ranges checked.

        Raises:
            IndexParameterError: on an unknown key,
                ``false_positive_rate`` outside (0, 1), ``hashes`` < 1,
                or ``docs_per_block`` < 1.
        """
        merged = dict(DEFAULT_SIGNATURE_PARAMS)
        unknown = set(params or {}) - set(merged)
        if unknown:
            raise IndexParameterError(
                f"unknown signature parameter(s) {sorted(unknown)}; known: "
                f"{sorted(merged)}"
            )
        merged.update(params or {})
        fpr = float(merged["false_positive_rate"])
        hashes = int(merged["hashes"])
        docs_per_block = int(merged["docs_per_block"])
        if not 0.0 < fpr < 1.0:
            raise IndexParameterError(
                f"false_positive_rate must lie in (0, 1), got {fpr}"
            )
        if hashes < 1:
            raise IndexParameterError(f"hashes must be >= 1, got {hashes}")
        if docs_per_block < 1:
            raise IndexParameterError(
                f"docs_per_block must be >= 1, got {docs_per_block}"
            )
        return {
            "false_positive_rate": fpr,
            "hashes": hashes,
            "docs_per_block": docs_per_block,
        }

    def build_artifact(
        self,
        directory: Path,
        records: TypingSequence[Sequence],
        params: IndexParameters,
        backend_params: dict | None = None,
    ) -> int:
        return write_signature(
            records,
            Path(directory) / self.artifact,
            params,
            self.normalise_params(backend_params),
        )

    def open_artifact(self, directory: Path) -> SignatureIndex:
        return SignatureIndex(Path(directory) / self.artifact)

    def make_ranker(
        self, index, scorer: str = "count", on_corruption: str = "raise"
    ) -> SignatureRanker:
        return SignatureRanker(index, scorer, on_corruption=on_corruption)
