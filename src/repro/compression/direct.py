"""Direct coding of nucleotide sequences (the cino scheme).

Bases are packed two bits each, four to a byte, which both compresses
the collection close to 2 bits/base and allows vectorised decoding.
Wildcards are rare, so they are carried losslessly in a side list: a
gamma-coded count, Golomb-coded position gaps (parameter derived from
the wildcard density, so the decoder can recompute it), and a four-bit
identity per wildcard.  The two-bit payload is byte-aligned so decoding
is a single numpy shift-and-mask pass — the property behind the paper's
"extremely fast decompression" claim and the E8 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as TypingSequence

import numpy as np

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.elias import EliasGammaCodec
from repro.compression.fastpack import (
    MAX_GAMMA_VALUE,
    gamma_code_array,
    pack_grouped,
)
from repro.compression.golomb import GolombCodec
from repro.errors import CodecError
from repro.sequences.alphabet import (
    IUPAC_ALPHABET,
    NUM_BASES,
    WILDCARD_MIN_CODE,
)

_GAMMA = EliasGammaCodec()

#: Bases :func:`encode_sequences` codes per array pass (whole
#: sequences, so a longer one is a pass of its own); bounds the
#: batch coder's temporaries.
CODE_CHUNK = 1 << 18

_PACK_WEIGHTS = np.array([64, 16, 4, 1], dtype=np.uint8)
_WILDCARD_ID_BITS = 4


def _pack_bases(codes: np.ndarray) -> bytes:
    """Pack base codes (wildcards already zeroed) four to a byte; a
    length that is a multiple of four packs records back to back."""
    length = codes.shape[0]
    padded_length = -(-length // 4) * 4
    padded = np.zeros(padded_length, dtype=np.uint8)
    padded[:length] = codes
    return (padded.reshape(-1, 4) * _PACK_WEIGHTS).sum(
        axis=1, dtype=np.uint8
    ).tobytes()


def _unpack_bases(packed: np.ndarray, length: int) -> np.ndarray:
    """Expand packed bytes back into ``length`` base codes."""
    expanded = np.empty((packed.shape[0], 4), dtype=np.uint8)
    expanded[:, 0] = packed >> 6
    expanded[:, 1] = (packed >> 4) & 3
    expanded[:, 2] = (packed >> 2) & 3
    expanded[:, 3] = packed & 3
    return expanded.reshape(-1)[:length]


def encode_sequence(codes: np.ndarray) -> bytes:
    """Direct-code an array of IUPAC codes into a byte string.

    Raises:
        CodecError: if a code is outside the IUPAC range.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if codes.size and int(codes.max(initial=0)) >= len(IUPAC_ALPHABET):
        raise CodecError("sequence holds codes outside the IUPAC alphabet")

    writer = BitWriter()
    length = int(codes.shape[0])
    _GAMMA.encode_value(writer, length)

    wildcard_positions = np.flatnonzero(codes >= WILDCARD_MIN_CODE)
    _GAMMA.encode_value(writer, int(wildcard_positions.shape[0]))
    if wildcard_positions.shape[0]:
        golomb = GolombCodec.for_density(
            int(wildcard_positions.shape[0]), max(length, 1)
        )
        previous = -1
        for position in wildcard_positions:
            golomb.encode_value(writer, int(position) - previous - 1)
            previous = int(position)
        for position in wildcard_positions:
            writer.write_bits(
                int(codes[position]) - WILDCARD_MIN_CODE, _WILDCARD_ID_BITS
            )

    writer.align()
    if length:
        base_codes = codes.copy()
        base_codes[wildcard_positions] = 0
        writer.write_bytes(_pack_bases(base_codes))
    return writer.getvalue()


def encode_sequences(
    sequences: TypingSequence[np.ndarray],
) -> tuple[bytes, np.ndarray]:
    """Direct-code many sequences into one buffer.

    Returns ``(buffer, bounds)``: sequence ``i``'s payload is
    ``buffer[bounds[i]:bounds[i + 1]]``, byte for byte what
    :func:`encode_sequence` makes of it.  Runs of whole sequences of
    about :data:`CODE_CHUNK` bases are coded one array pass each.

    Raises:
        CodecError: if a code is outside the IUPAC range.
    """
    sequences = [
        np.ascontiguousarray(codes, dtype=np.uint8) for codes in sequences
    ]
    ends = np.cumsum([codes.shape[0] for codes in sequences], dtype=np.int64)
    passes: list[bytes] = []
    sizes: list[int] = []
    start = 0
    while start < len(sequences):
        before = int(ends[start]) - sequences[start].shape[0]
        stop = max(
            int(np.searchsorted(ends, before + CODE_CHUNK, side="right")),
            start + 1,
        )
        coded, coded_sizes = _encode_pass(sequences[start:stop])
        passes.append(coded)
        sizes += coded_sizes
        start = stop
    bounds = np.zeros(len(sequences) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return b"".join(passes), bounds


def _encode_pass(sequences: list[np.ndarray]) -> tuple[bytes, list[int]]:
    """The sequences' payloads back to back, and each one's size.

    A sequence without wildcards has the header ``gamma(length)
    gamma(0)`` padded to a byte, so the headers pack as byte-aligned
    groups and the bases as one zero-padded run; the rare sequence
    holding a wildcard goes through :func:`encode_sequence`.
    """
    lengths = np.array([codes.shape[0] for codes in sequences], np.int64)
    joined = np.concatenate(sequences)
    if joined.size and int(joined.max(initial=0)) >= len(IUPAC_ALPHABET):
        raise CodecError("sequence holds codes outside the IUPAC alphabet")
    alone = lengths > MAX_GAMMA_VALUE
    alone[
        np.searchsorted(
            np.cumsum(lengths), np.flatnonzero(joined >= WILDCARD_MIN_CODE),
            side="right",
        )
    ] = True
    del joined
    batch = np.flatnonzero(~alone)

    header_patterns, header_lengths = gamma_code_array(
        np.column_stack([lengths[batch], np.zeros_like(batch)]).ravel()
    )
    headers, header_bounds = pack_grouped(
        header_patterns, header_lengths, np.repeat(batch, 2)
    )
    pad = np.zeros(3, dtype=np.uint8)
    bodies = _pack_bases(
        np.concatenate(
            [np.empty(0, dtype=np.uint8)]
            + [
                piece
                for slot in batch.tolist()
                for piece in (sequences[slot], pad[: -len(sequences[slot]) % 4])
            ]
        )
    )
    body_bounds = np.zeros(batch.shape[0] + 1, dtype=np.int64)
    np.cumsum((lengths[batch] + 3) // 4, out=body_bounds[1:])

    headers, bodies = memoryview(headers), memoryview(bodies)
    header_bounds, body_bounds = header_bounds.tolist(), body_bounds.tolist()
    pieces: list[bytes | memoryview] = []
    sizes: list[int] = []
    cursor = 0
    for slot, scalar in enumerate(alone.tolist()):
        if scalar:
            payload = encode_sequence(sequences[slot])
            pieces.append(payload)
            sizes.append(len(payload))
            continue
        head = headers[header_bounds[cursor] : header_bounds[cursor + 1]]
        body = bodies[body_bounds[cursor] : body_bounds[cursor + 1]]
        pieces += (head, body)
        sizes.append(len(head) + len(body))
        cursor += 1
    return b"".join(pieces), sizes


def decode_sequence(data: bytes) -> np.ndarray:
    """Invert :func:`encode_sequence`.

    Raises:
        BitStreamError: if the byte string is truncated.
    """
    reader = BitReader(data)
    length = _GAMMA.decode_value(reader)
    wildcard_count = _GAMMA.decode_value(reader)
    # Corruption guards: a valid payload always holds the 2-bit body,
    # and wildcards are positions, so neither field can exceed what the
    # byte count admits.
    if length > 4 * len(data):
        raise CodecError(
            f"corrupt direct coding: length {length} exceeds payload"
        )
    if wildcard_count > length:
        raise CodecError(
            f"corrupt direct coding: {wildcard_count} wildcards in a "
            f"{length}-base sequence"
        )

    wildcard_positions = np.empty(wildcard_count, dtype=np.int64)
    wildcard_codes = np.empty(wildcard_count, dtype=np.uint8)
    if wildcard_count:
        golomb = GolombCodec.for_density(wildcard_count, max(length, 1))
        previous = -1
        for slot in range(wildcard_count):
            previous += golomb.decode_value(reader) + 1
            wildcard_positions[slot] = previous
        if previous >= length:
            raise CodecError(
                f"corrupt direct coding: wildcard offset {previous} past "
                f"the sequence end {length}"
            )
        for slot in range(wildcard_count):
            wildcard_codes[slot] = (
                reader.read_bits(_WILDCARD_ID_BITS) + WILDCARD_MIN_CODE
            )

    reader.align()
    if not length:
        return np.empty(0, dtype=np.uint8)
    packed = reader.read_aligned_bytes(-(-length // 4))
    codes = _unpack_bases(packed, length)
    if wildcard_count:
        codes[wildcard_positions] = wildcard_codes
    return codes


@dataclass(frozen=True)
class DirectCodingStats:
    """Space accounting for a direct-coded sequence batch."""

    total_bases: int
    total_wildcards: int
    compressed_bytes: int

    @property
    def bits_per_base(self) -> float:
        """Compressed bits per input position (bases + wildcards)."""
        positions = self.total_bases + self.total_wildcards
        if not positions:
            return 0.0
        return 8.0 * self.compressed_bytes / positions


def measure(sequences: list[np.ndarray]) -> DirectCodingStats:
    """Direct-code a batch and report the space statistics."""
    total_bases = 0
    total_wildcards = 0
    compressed = 0
    for codes in sequences:
        codes = np.asarray(codes, dtype=np.uint8)
        wildcards = int(np.count_nonzero(codes >= WILDCARD_MIN_CODE))
        total_wildcards += wildcards
        total_bases += int(codes.shape[0]) - wildcards
        compressed += len(encode_sequence(codes))
    return DirectCodingStats(total_bases, total_wildcards, compressed)


def raw_two_bit_size(length: int) -> int:
    """Bytes a bare 2-bit packing of ``length`` bases would need."""
    if length < 0:
        raise CodecError(f"negative sequence length {length}")
    return -(-length * 2 // 8)


assert NUM_BASES == 4, "direct coding packs exactly four bases per byte"
