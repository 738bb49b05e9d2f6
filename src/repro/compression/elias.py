"""Elias gamma and delta codes (Elias, 1975).

The paper's index uses gamma codes for within-document frequencies; the
delta code is included because it wins for larger magnitudes and appears
in the E2 codec comparison.  Both are non-parameterised.  The textbook
codes are defined for positive integers; these implementations shift by
one so the public domain is all non-negative integers, consistent with
:class:`repro.compression.integer.IntegerCodec`.
"""

from __future__ import annotations

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.integer import IntegerCodec


class EliasGammaCodec(IntegerCodec):
    """Elias gamma: unary length prefix, then the low bits of the value.

    For n >= 0 let m = n + 1 with binary length L: the code is
    ``unary(L - 1)`` followed by the L - 1 low-order bits of m.
    """

    name = "gamma"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_non_negative(value)
        shifted = value + 1
        low_bits = shifted.bit_length() - 1
        writer.write_unary(low_bits)
        writer.write_bits(shifted & ((1 << low_bits) - 1), low_bits)

    def decode_value(self, reader: BitReader) -> int:
        low_bits = reader.read_unary()
        return ((1 << low_bits) | reader.read_bits(low_bits)) - 1

    def code_length(self, value: int) -> int:
        self._check_non_negative(value)
        return 2 * (value + 1).bit_length() - 1


class EliasDeltaCodec(IntegerCodec):
    """Elias delta: the length field itself is gamma-coded.

    Asymptotically shorter than gamma (log + O(log log) vs. 2 log); the
    crossover is around n = 15, which is why short d-gap distributions
    favour gamma/Golomb and long ones favour delta.
    """

    name = "delta"

    def __init__(self) -> None:
        self._gamma = EliasGammaCodec()

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_non_negative(value)
        shifted = value + 1
        low_bits = shifted.bit_length() - 1
        self._gamma.encode_value(writer, low_bits)
        writer.write_bits(shifted & ((1 << low_bits) - 1), low_bits)

    def decode_value(self, reader: BitReader) -> int:
        low_bits = self._gamma.decode_value(reader)
        return ((1 << low_bits) | reader.read_bits(low_bits)) - 1

    def code_length(self, value: int) -> int:
        self._check_non_negative(value)
        low_bits = (value + 1).bit_length() - 1
        return self._gamma.code_length(low_bits) + low_bits
