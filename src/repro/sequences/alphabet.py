"""Nucleotide alphabet: base codes, IUPAC wildcards, and fast translation.

The whole library represents sequences as numpy ``uint8`` arrays of *codes*
rather than strings.  Codes 0-3 are the four bases in the fixed order
``A C G T``; codes 4-14 are the eleven IUPAC wildcard characters.  Keeping
bases in the 0-3 range means an interval (k-mer) of bases packs into an
integer with plain base-4 arithmetic, and a wildcard is detectable with a
single comparison (``code >= WILDCARD_MIN_CODE``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlphabetError

#: The four nucleotide bases, in code order.  ``BASES[code]`` is the base
#: character for codes 0-3.
BASES = "ACGT"

#: Number of plain bases (the radix used to pack intervals into integers).
NUM_BASES = 4

#: All supported characters in code order: bases first, wildcards after.
IUPAC_ALPHABET = "ACGTRYKMSWBDHVN"

#: Smallest code that denotes a wildcard rather than a concrete base.
WILDCARD_MIN_CODE = 4

#: Expansion of every IUPAC character into the set of bases it stands for.
IUPAC_EXPANSIONS: dict[str, frozenset[str]] = {
    "A": frozenset("A"),
    "C": frozenset("C"),
    "G": frozenset("G"),
    "T": frozenset("T"),
    "R": frozenset("AG"),
    "Y": frozenset("CT"),
    "K": frozenset("GT"),
    "M": frozenset("AC"),
    "S": frozenset("CG"),
    "W": frozenset("AT"),
    "B": frozenset("CGT"),
    "D": frozenset("AGT"),
    "H": frozenset("ACT"),
    "V": frozenset("ACG"),
    "N": frozenset("ACGT"),
}

#: Watson-Crick complement for every IUPAC character.
IUPAC_COMPLEMENTS: dict[str, str] = {
    "A": "T",
    "C": "G",
    "G": "C",
    "T": "A",
    "R": "Y",
    "Y": "R",
    "K": "M",
    "M": "K",
    "S": "S",
    "W": "W",
    "B": "V",
    "D": "H",
    "H": "D",
    "V": "B",
    "N": "N",
}

_INVALID = 255


def _build_encode_table() -> np.ndarray:
    table = np.full(256, _INVALID, dtype=np.uint8)
    for code, char in enumerate(IUPAC_ALPHABET):
        table[ord(char)] = code
        table[ord(char.lower())] = code
    return table


def _build_decode_table() -> np.ndarray:
    table = np.zeros(len(IUPAC_ALPHABET), dtype=np.uint8)
    for code, char in enumerate(IUPAC_ALPHABET):
        table[code] = ord(char)
    return table


def _build_complement_table() -> np.ndarray:
    table = np.zeros(len(IUPAC_ALPHABET), dtype=np.uint8)
    for code, char in enumerate(IUPAC_ALPHABET):
        table[code] = IUPAC_ALPHABET.index(IUPAC_COMPLEMENTS[char])
    return table


_ENCODE_TABLE = _build_encode_table()
_DECODE_TABLE = _build_decode_table()
_COMPLEMENT_TABLE = _build_complement_table()


def encode(text: str | bytes) -> np.ndarray:
    """Translate a nucleotide string into an array of IUPAC codes.

    Accepts upper- or lower-case characters from the 15-letter IUPAC
    alphabet and returns a ``uint8`` array of codes.

    Raises:
        AlphabetError: if any character is outside the IUPAC alphabet.
    """
    if isinstance(text, str):
        raw = text.encode("ascii", errors="replace")
    else:
        raw = bytes(text)
    codes = _ENCODE_TABLE[np.frombuffer(raw, dtype=np.uint8)]
    bad = np.flatnonzero(codes == _INVALID)
    if bad.size:
        offender = chr(raw[bad[0]])
        raise AlphabetError(
            f"invalid nucleotide character {offender!r} at position {int(bad[0])}"
        )
    return codes


def decode(codes: np.ndarray) -> str:
    """Translate an array of IUPAC codes back into a string.

    Raises:
        AlphabetError: if any code is out of range.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and int(codes.max(initial=0)) >= len(IUPAC_ALPHABET):
        raise AlphabetError(f"code {int(codes.max())} is outside the IUPAC alphabet")
    return _DECODE_TABLE[codes].tobytes().decode("ascii")


def is_wildcard(codes: np.ndarray) -> np.ndarray:
    """Boolean mask marking the positions holding wildcard codes."""
    return np.asarray(codes) >= WILDCARD_MIN_CODE


def complement(codes: np.ndarray) -> np.ndarray:
    """Complement every code (A<->T, C<->G, wildcards per IUPAC)."""
    return _COMPLEMENT_TABLE[np.asarray(codes, dtype=np.uint8)]


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Reverse-complement an array of codes."""
    return complement(codes)[::-1]

