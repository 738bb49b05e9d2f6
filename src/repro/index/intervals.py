"""Fixed-length substring ("interval") extraction.

The paper's index terms are fixed-length substrings of the collection.
An interval of length k over the four bases packs into the integer

    id = sum_j  code[j] * 4^(k - 1 - j)

so the vocabulary is at most 4^k entries and extraction is pure numpy:
one Horner pass of k shifted slices, in the narrowest unsigned dtype
that holds the ids.  Windows that contain a wildcard are skipped, as in
the original system — wildcards are rare and the fine search still sees
them.  A query is one sequence; index construction runs the same pass
once over the whole collection (:meth:`IntervalExtractor.extract_collection`).

Extraction supports a stride so both overlapping (stride 1) and
non-overlapping (stride k) indexing — an explicit design axis of the
paper's index-size experiments — share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as TypingSequence

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

    @property
    def id_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype holding every id: ``uint16`` up
        to length 8, ``uint32`` up to :data:`MAX_INTERVAL_LENGTH`."""
        return np.dtype(np.uint16 if self.length <= 8 else np.uint32)

    def _windows(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The id of every window of ``codes`` and whether it is
        wildcard-free, as ``(ids, valid)`` in :attr:`id_dtype`.

        Horner over the window's bases: one shifted slice per base.  A
        window holding a wildcard gets a meaningless id and a false
        ``valid``.
        """
        count = codes.shape[0] - self.length + 1
        if count < 1:
            return np.zeros(0, dtype=self.id_dtype), np.zeros(0, dtype=bool)
        ids = np.zeros(count, dtype=self.id_dtype)
        wildcard = codes >= WILDCARD_MIN_CODE
        invalid = np.zeros(count, dtype=bool)
        for offset in range(self.length):
            np.multiply(ids, NUM_BASES, out=ids)
            np.add(ids, codes[offset : offset + count], out=ids)
            np.logical_or(
                invalid, wildcard[offset : offset + count], out=invalid
            )
        return ids, np.logical_not(invalid, out=invalid)

    def extract(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All interval ids and their start positions in one sequence.

        Returns:
            ``(ids, positions)`` — int64 arrays of equal length.  Windows
            containing a wildcard are omitted; a sequence shorter than
            the interval length yields empty arrays.
        """
        ids, valid = self._windows(np.ascontiguousarray(codes, dtype=np.uint8))
        positions = np.arange(0, ids.shape[0], self.stride, dtype=np.int64)
        valid = valid[:: self.stride]
        return ids[:: self.stride][valid].astype(np.int64), positions[valid]

    def extract_collection(
        self, sequences: TypingSequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every sequence's interval ids with its ordinal, in one pass.

        Equal to concatenating each sequence's :meth:`extract` ids, with
        ``ordinals[i]`` the index of the sequence id ``i`` came from.
        The sequences are joined with a wildcard between neighbours, so
        a window straddling two of them is dropped like any other
        wildcard window; the stride counts from each sequence's start.

        Returns:
            ``(ids, ordinals)``: ids in :attr:`id_dtype`, ordinals int32.
        """
        lengths = np.fromiter(
            (codes.shape[0] for codes in sequences), dtype=np.int64,
            count=len(sequences),
        )
        separator = np.full(1, WILDCARD_MIN_CODE, dtype=np.uint8)
        joined = np.concatenate(
            [np.empty(0, dtype=np.uint8)]
            + [piece for codes in sequences for piece in (codes, separator)]
        ).astype(np.uint8, copy=False)
        ids, valid = self._windows(joined)
        del joined
        owner = np.repeat(
            np.arange(len(sequences), dtype=np.int32), lengths + 1
        )[: ids.shape[0]]
        if self.stride > 1:
            starts = np.cumsum(lengths + 1) - (lengths + 1)
            phase = np.arange(ids.shape[0]) - starts[owner]
            valid &= phase % self.stride == 0
            del phase
        return ids[valid], owner[valid]

    def extract_distinct(self, codes: np.ndarray) -> np.ndarray:
        """Sorted distinct interval ids appearing in a sequence."""
        ids, _ = self.extract(codes)
        return np.unique(ids)
