"""Fixed-length substring ("interval") extraction.

The paper's index terms are fixed-length substrings of the collection.
An interval of length k over the four bases packs into the integer

    id = sum_j  code[j] * 4^(k - 1 - j)

so the vocabulary is at most 4^k entries and extraction is pure numpy:
a sliding window view times a weight vector.  Windows that contain a
wildcard are skipped, as in the original system — wildcards are rare
and the fine search still sees them.

Extraction supports a stride so both overlapping (stride 1) and
non-overlapping (stride k) indexing — an explicit design axis of the
paper's index-size experiments — share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IndexParameterError
from repro.sequences.alphabet import BASES, NUM_BASES, WILDCARD_MIN_CODE

#: Largest supported interval length: 4^16 ids still fit comfortably in
#: an int64 and vocabularies beyond that are never useful for DNA.
MAX_INTERVAL_LENGTH = 16


def interval_id(text: str) -> int:
    """Pack an interval string (bases only) into its integer id.

    Raises:
        IndexParameterError: if the string is empty, too long, or holds
            a non-base character.
    """
    if not 0 < len(text) <= MAX_INTERVAL_LENGTH:
        raise IndexParameterError(
            f"interval length must be 1..{MAX_INTERVAL_LENGTH}, "
            f"got {len(text)}"
        )
    packed = 0
    for char in text.upper():
        try:
            packed = packed * NUM_BASES + BASES.index(char)
        except ValueError:
            raise IndexParameterError(
                f"interval may only contain bases, got {char!r}"
            ) from None
    return packed


def interval_text(packed: int, length: int) -> str:
    """Unpack an integer id back into its interval string.

    Raises:
        IndexParameterError: if the id is out of range for ``length``.
    """
    if not 0 < length <= MAX_INTERVAL_LENGTH:
        raise IndexParameterError(f"bad interval length {length}")
    if not 0 <= packed < NUM_BASES**length:
        raise IndexParameterError(
            f"id {packed} out of range for length {length}"
        )
    chars = []
    for _ in range(length):
        packed, digit = divmod(packed, NUM_BASES)
        chars.append(BASES[digit])
    return "".join(reversed(chars))


@dataclass(frozen=True)
class IntervalExtractor:
    """Extracts (interval id, position) pairs from coded sequences.

    Attributes:
        length: the interval (k-mer) length.
        stride: distance between successive window starts; 1 gives
            overlapping intervals, ``length`` gives non-overlapping.
    """

    length: int
    stride: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.length <= MAX_INTERVAL_LENGTH:
            raise IndexParameterError(
                f"interval length must be 1..{MAX_INTERVAL_LENGTH}, "
                f"got {self.length}"
            )
        if self.stride < 1:
            raise IndexParameterError(f"stride must be >= 1, got {self.stride}")

    @property
    def vocabulary_limit(self) -> int:
        """Number of distinct interval ids this length admits."""
        return NUM_BASES**self.length

    def extract(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All interval ids and their start positions in one sequence.

        Returns:
            ``(ids, positions)`` — int64 arrays of equal length.  Windows
            containing a wildcard are omitted; a sequence shorter than
            the interval length yields empty arrays.
        """
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        count = codes.shape[0] - self.length + 1
        if count < 1:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        # Horner over the window's bases: one shifted slice per base.
        # A window holding a wildcard gets a meaningless id and is
        # dropped by the wildcard-count test.
        ids = np.zeros(count, dtype=np.int64)
        for offset in range(self.length):
            ids *= NUM_BASES
            ids += codes[offset : offset + count]
        wildcards = np.zeros(codes.shape[0] + 1, dtype=np.int64)
        np.cumsum(codes >= WILDCARD_MIN_CODE, out=wildcards[1:])
        valid = wildcards[self.length :] == wildcards[:count]
        positions = np.arange(0, count, self.stride, dtype=np.int64)
        valid = valid[:: self.stride]
        return ids[:: self.stride][valid], positions[valid]

    def extract_distinct(self, codes: np.ndarray) -> np.ndarray:
        """Sorted distinct interval ids appearing in a sequence."""
        ids, _ = self.extract(codes)
        return np.unique(ids)
