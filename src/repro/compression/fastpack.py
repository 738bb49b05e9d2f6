"""Vectorised variable-length code packing.

Index construction encodes millions of small integers; doing that one
``write_bits`` call at a time dominates build time.  This module
computes whole *arrays* of Elias-gamma and Golomb code patterns with
numpy and packs them into a byte buffer with eight scatter-OR passes —
bit-identical to the scalar :class:`~repro.compression.bitio.BitWriter`
output, which the tests pin down.

The vector path covers codes up to :data:`MAX_VECTOR_BITS` bits (a
pattern must fit an aligned 64-bit window at any intra-byte offset);
the rare longer code — a huge Golomb quotient — is spliced in with a
scalar fallback.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecValueError

#: Longest code the scatter windows can hold: 7 offset bits + the code
#: must fit in 64.
MAX_VECTOR_BITS = 57

#: Largest value whose gamma code fits the vector window:
#: value + 1 < 2**29 gives a code of at most 2*28 + 1 = 57 bits.
MAX_GAMMA_VALUE = (1 << 28) - 1


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """bit_length of each value (values >= 1, exactly, via frexp)."""
    _, exponents = np.frexp(values.astype(np.float64))
    return exponents.astype(np.int64)


def gamma_code_array(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elias-gamma patterns and bit lengths for an array of values.

    Matches ``EliasGammaCodec`` (which encodes ``value + 1``): the
    pattern is ``low_bits`` one-bits, a zero, then the low bits of the
    shifted value.

    Raises:
        CodecValueError: if any value is negative or exceeds
            :data:`MAX_GAMMA_VALUE` (whose code would not fit the
            vector window).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and (int(values.min(initial=0)) < 0
                        or int(values.max(initial=0)) > MAX_GAMMA_VALUE):
        raise CodecValueError("gamma vector path: value out of range")
    shifted = (values + 1).astype(np.uint64)
    low_bits = (_bit_lengths(values + 1) - 1).astype(np.uint64)
    ones = (np.uint64(1) << low_bits) - np.uint64(1)
    mask = ones  # the low `low_bits` bits
    patterns = (ones << (low_bits + np.uint64(1))) | (shifted & mask)
    lengths = (2 * low_bits.astype(np.int64) + 1)
    return patterns, lengths


def golomb_code_array(
    values: np.ndarray, parameter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Golomb patterns, bit lengths, and an overflow mask.

    Matches ``GolombCodec``: a unary quotient (ones then zero) followed
    by a truncated-binary remainder.  Codes longer than
    :data:`MAX_VECTOR_BITS` get a zero pattern and a set overflow flag;
    the caller must encode those scalars itself.

    Raises:
        CodecValueError: if the parameter is invalid or a value is
            negative.
    """
    if parameter < 1:
        raise CodecValueError(f"Golomb parameter must be >= 1, got {parameter}")
    values = np.asarray(values, dtype=np.int64)
    if values.size and int(values.min(initial=0)) < 0:
        raise CodecValueError("golomb vector path: negative value")
    quotients = (values // parameter).astype(np.uint64)
    remainders = (values % parameter).astype(np.uint64)

    if parameter > 1:
        ceil_bits = (parameter - 1).bit_length()
        threshold = (1 << ceil_bits) - parameter
        short = remainders < np.uint64(threshold)
        remainder_bits = np.where(short, ceil_bits - 1, ceil_bits).astype(
            np.uint64
        )
        remainder_values = np.where(
            short, remainders, remainders + np.uint64(threshold)
        ).astype(np.uint64)
    else:
        remainder_bits = np.zeros(values.shape[0], dtype=np.uint64)
        remainder_values = np.zeros(values.shape[0], dtype=np.uint64)

    lengths = quotients.astype(np.int64) + 1 + remainder_bits.astype(np.int64)
    overflow = lengths > MAX_VECTOR_BITS
    safe_quotients = np.where(overflow, np.uint64(0), quotients)
    ones = (np.uint64(1) << safe_quotients) - np.uint64(1)
    patterns = (
        ones << (remainder_bits + np.uint64(1))
    ) | remainder_values
    patterns = np.where(overflow, np.uint64(0), patterns)
    return patterns, lengths, overflow


def pack_patterns(
    patterns: np.ndarray,
    lengths: np.ndarray,
    long_values: list[tuple[int, int, int]] | None = None,
) -> bytes:
    """Concatenate MSB-first codes into a zero-padded byte string.

    Args:
        patterns: uint64 code patterns, right-aligned.
        lengths: bit length of each code (0 allowed; emits nothing).
        long_values: optional scalar splices for overflow codes, as
            ``(slot, quotient, tail_pattern_bits)`` is *not* the
            interface — see :func:`encode_golomb_stream` which handles
            overflow before calling here.  This function requires every
            length <= :data:`MAX_VECTOR_BITS`.

    Raises:
        CodecValueError: if a length exceeds the vector window.
    """
    patterns = np.asarray(patterns, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size and int(lengths.max(initial=0)) > MAX_VECTOR_BITS:
        raise CodecValueError(
            "pack_patterns handles codes up to "
            f"{MAX_VECTOR_BITS} bits; splice longer codes separately"
        )
    del long_values
    total_bits = int(lengths.sum())
    if not total_bits:
        return b""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    byte_slots = (starts >> 3).astype(np.int64)
    bit_offsets = (starts & 7).astype(np.uint64)

    # Each code sits inside an 8-byte window anchored at its byte slot:
    # shift it up so its first bit lands at the window's bit_offset.
    window = patterns << (
        np.uint64(64) - bit_offsets - lengths.astype(np.uint64)
    )
    out = np.zeros((total_bits + 7) // 8 + 8, dtype=np.uint8)
    for byte_index in range(8):
        shift = np.uint64(56 - 8 * byte_index)
        chunk = ((window >> shift) & np.uint64(0xFF)).astype(np.uint8)
        np.bitwise_or.at(out, byte_slots + byte_index, chunk)
    return out[: (total_bits + 7) // 8].tobytes()


def interleave_codes(
    *streams: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Zip per-field code arrays into one per-entry code sequence.

    Given k (patterns, lengths) pairs of equal size n, produces arrays
    of size k*n ordered entry-by-entry — the layout the postings
    codec's section A uses (doc gap, then count, per entry).
    """
    if not streams:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    size = streams[0][0].shape[0]
    patterns = np.empty(size * len(streams), dtype=np.uint64)
    lengths = np.empty(size * len(streams), dtype=np.int64)
    for slot, (stream_patterns, stream_lengths) in enumerate(streams):
        patterns[slot :: len(streams)] = stream_patterns
        lengths[slot :: len(streams)] = stream_lengths
    return patterns, lengths


def golomb_code_array_multi(
    values: np.ndarray, parameters: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Golomb patterns with a *per-value* parameter.

    The whole-index bulk encoder derives a different parameter for
    every posting list; this computes all lists' codes in one pass.
    Semantics otherwise identical to :func:`golomb_code_array`.

    Raises:
        CodecValueError: if shapes disagree, a parameter is < 1, or a
            value is negative.
    """
    values = np.asarray(values, dtype=np.int64)
    parameters = np.asarray(parameters, dtype=np.int64)
    if values.shape != parameters.shape:
        raise CodecValueError("values and parameters must be parallel")
    if parameters.size and int(parameters.min(initial=1)) < 1:
        raise CodecValueError("Golomb parameters must be >= 1")
    if values.size and int(values.min(initial=0)) < 0:
        raise CodecValueError("golomb vector path: negative value")

    quotients = (values // parameters).astype(np.uint64)
    remainders = (values % parameters).astype(np.uint64)
    # ceil(log2 b) via bit_length(b - 1); b == 1 gets zero remainder bits.
    multi = parameters > 1
    ceil_bits = np.zeros(values.shape[0], dtype=np.uint64)
    if bool(multi.any()):
        ceil_bits[multi] = _bit_lengths(parameters[multi] - 1).astype(
            np.uint64
        )
    thresholds = (np.uint64(1) << ceil_bits) - parameters.astype(np.uint64)
    short = remainders < thresholds
    remainder_bits = np.where(
        multi, np.where(short, ceil_bits - np.uint64(1), ceil_bits),
        np.uint64(0),
    ).astype(np.uint64)
    remainder_values = np.where(
        multi,
        np.where(short, remainders, remainders + thresholds),
        np.uint64(0),
    ).astype(np.uint64)

    lengths = quotients.astype(np.int64) + 1 + remainder_bits.astype(np.int64)
    overflow = lengths > MAX_VECTOR_BITS
    safe_quotients = np.where(overflow, np.uint64(0), quotients)
    ones = (np.uint64(1) << safe_quotients) - np.uint64(1)
    patterns = (ones << (remainder_bits + np.uint64(1))) | remainder_values
    patterns = np.where(overflow, np.uint64(0), patterns)
    return patterns, lengths, overflow


def pack_grouped(
    patterns: np.ndarray, lengths: np.ndarray, group_ids: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Pack codes into one buffer with byte alignment between groups.

    Args:
        patterns / lengths: as for :func:`pack_patterns`.
        group_ids: non-decreasing group index per code (0..G-1, every
            group non-empty).

    Returns:
        ``(buffer, bounds)`` where ``bounds`` has G+1 byte offsets;
        group g's bytes are ``buffer[bounds[g]:bounds[g+1]]`` — exactly
        what encoding each group separately would produce.

    Raises:
        CodecValueError: if a code exceeds the vector window or the
            group ids are not non-decreasing.
    """
    patterns = np.asarray(patterns, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    group_ids = np.asarray(group_ids, dtype=np.int64)
    if lengths.size and int(lengths.max(initial=0)) > MAX_VECTOR_BITS:
        raise CodecValueError("pack_grouped: code exceeds the vector window")
    if group_ids.size and int(np.diff(group_ids).min(initial=0)) < 0:
        raise CodecValueError("pack_grouped: group ids must be non-decreasing")
    if not lengths.size:
        return b"", np.zeros(1, dtype=np.int64)

    num_groups = int(group_ids[-1]) + 1
    group_bits = np.bincount(group_ids, weights=lengths,
                             minlength=num_groups).astype(np.int64)
    group_bytes = (group_bits + 7) // 8
    bounds = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(group_bytes, out=bounds[1:])

    global_prefix = np.cumsum(lengths) - lengths
    first_of_group = np.zeros(num_groups, dtype=np.int64)
    unique_groups, first_indices = np.unique(group_ids, return_index=True)
    first_of_group[unique_groups] = global_prefix[first_indices]
    starts = (
        bounds[group_ids] * 8 + (global_prefix - first_of_group[group_ids])
    )

    byte_slots = (starts >> 3).astype(np.int64)
    bit_offsets = (starts & 7).astype(np.uint64)
    window = patterns << (
        np.uint64(64) - bit_offsets - lengths.astype(np.uint64)
    )
    out = np.zeros(int(bounds[-1]) + 8, dtype=np.uint8)
    for byte_index in range(8):
        shift = np.uint64(56 - 8 * byte_index)
        chunk = ((window >> shift) & np.uint64(0xFF)).astype(np.uint8)
        np.bitwise_or.at(out, byte_slots + byte_index, chunk)
    return out[: int(bounds[-1])].tobytes(), bounds

