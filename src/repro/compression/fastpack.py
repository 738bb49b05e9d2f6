"""Vectorised variable-length code packing.

Index construction encodes millions of small integers; doing that one
``write_bits`` call at a time dominates build time.  This module
computes whole *arrays* of Elias-gamma and Golomb code patterns with
numpy and packs them into 64-bit big-endian words: the codes starting
in a word are OR-reduced into it in one ``reduceat`` pass, and the one
code that may cross into the next word spills its tail there with one
more write.  The output is bit-identical to the scalar
:class:`~repro.compression.bitio.BitWriter`, which the tests pin down.

The vector path covers codes up to :data:`MAX_VECTOR_BITS` bits; the
rare longer code — a huge Golomb quotient — is flagged so the caller
can encode it with the scalar writer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecValueError

#: Longest code the vector coders emit; a longer one (a huge Golomb
#: quotient) is flagged as overflow for the scalar writer.
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


def pack_patterns(patterns: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate MSB-first codes into a zero-padded byte string:
    :func:`pack_grouped` with one group."""
    lengths = np.asarray(lengths)
    return pack_grouped(patterns, lengths, np.zeros(lengths.shape, np.int8))[0]


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
    values: np.ndarray, parameters: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Golomb patterns, bit lengths, and an overflow mask.

    Matches ``GolombCodec``: a unary quotient (ones then zero) followed
    by a truncated-binary remainder.  ``parameters`` is one parameter
    per value (the whole-index bulk encoder derives one per posting
    list) or a single parameter for every value.  Codes longer than
    :data:`MAX_VECTOR_BITS` get a zero pattern and a set overflow flag;
    the caller must encode those values itself.

    Raises:
        CodecValueError: if shapes disagree, a parameter is < 1, or a
            value is negative.
    """
    values = np.asarray(values, dtype=np.int64)
    parameters = np.asarray(parameters, dtype=np.int64)
    if parameters.ndim and parameters.shape != values.shape:
        raise CodecValueError("values and parameters must be parallel")
    parameters = np.broadcast_to(parameters, values.shape)
    if parameters.size and int(parameters.min(initial=1)) < 1:
        raise CodecValueError("Golomb parameters must be >= 1")
    if values.size and int(values.min(initial=0)) < 0:
        raise CodecValueError("golomb vector path: negative value")

    quotients, remainders = np.divmod(values, parameters)
    quotients = quotients.astype(np.uint64)
    remainders = remainders.astype(np.uint64)
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


def _run_firsts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    first = np.empty(values.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def pack_grouped(
    patterns: np.ndarray, lengths: np.ndarray, group_ids: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Pack codes into one buffer with byte alignment between groups.

    Args:
        patterns: uint64 code patterns, right-aligned; a zero-length
            code must have a zero pattern.
        lengths: bit length of each code (0 allowed; emits nothing).
        group_ids: non-decreasing group index per code (0..G-1, every
            group non-empty).

    Returns:
        ``(buffer, bounds)`` where ``bounds`` has G+1 byte offsets;
        group g's bytes are ``buffer[bounds[g]:bounds[g+1]]`` — exactly
        what encoding each group separately would produce.

    Raises:
        CodecValueError: if a code exceeds :data:`MAX_VECTOR_BITS` or
            the group ids are not non-decreasing.
    """
    patterns = np.asarray(patterns, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    group_ids = np.asarray(group_ids)
    if lengths.size and int(lengths.max(initial=0)) > MAX_VECTOR_BITS:
        raise CodecValueError(
            f"pack_grouped handles codes up to {MAX_VECTOR_BITS} bits; "
            "encode longer codes with the scalar writer"
        )
    if bool(np.any(group_ids[1:] < group_ids[:-1])):
        raise CodecValueError("pack_grouped: group ids must be non-decreasing")
    if not lengths.size:
        return b"", np.zeros(1, dtype=np.int64)

    # Groups: where the id changes.  Each group starts on a byte, so a
    # code's bit start is its unpadded start plus the padding before
    # its group.
    firsts = _run_firsts(group_ids)
    group_bits = np.add.reduceat(lengths, firsts)
    bounds = np.zeros(firsts.shape[0] + 1, dtype=np.int64)
    np.cumsum((group_bits + 7) >> 3, out=bounds[1:])
    starts = np.cumsum(lengths)
    starts -= lengths
    padding = bounds[:-1] * 8 - starts[firsts]
    starts += np.repeat(padding, np.diff(np.append(firsts, lengths.shape[0])))

    # Words: the codes starting in a word OR together into it; a code
    # running past its word's end leaves its tail to the next word.
    words_at = starts >> 6
    ends = (starts & 63) + lengths
    spills = ends > 64
    heads = (patterns << np.maximum(64 - ends, 0).astype(np.uint64)) >> (
        np.maximum(ends - 64, 0).astype(np.uint64)
    )
    word_firsts = _run_firsts(words_at)
    total_bytes = int(bounds[-1])
    words = np.zeros(total_bytes // 8 + 2, dtype=np.uint64)
    words[words_at[word_firsts]] = np.bitwise_or.reduceat(heads, word_firsts)
    words[words_at[spills] + 1] |= patterns[spills] << (
        128 - ends[spills]
    ).astype(np.uint64)
    return words.astype(">u8").view(np.uint8)[:total_bytes].tobytes(), bounds
