"""Golomb and Rice codes (Golomb, 1966) with the classic parameter rule.

The paper compresses document-gap sequences with Golomb codes, choosing
the parameter from the list density as in Witten, Moffat & Bell: for a
list of ``n`` pointers over a universe of ``N`` slots the Bernoulli
model gives p = n / N and

    b = ceil( log(2 - p) / -log(1 - p) )

which makes the expected code length nearly optimal.  The remainder is
written in truncated binary so non-power-of-two parameters lose nothing.
"""

from __future__ import annotations

import math

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.integer import IntegerCodec
from repro.errors import CodecValueError


def optimal_golomb_parameter(num_pointers: int, universe: int) -> int:
    """The Bernoulli-model Golomb parameter for a gap list.

    Args:
        num_pointers: how many gaps the list holds.
        universe: the range the cumulative gaps span (e.g. collection
            size in sequences for document gaps).

    Returns:
        The parameter ``b`` >= 1.

    Raises:
        CodecValueError: if either argument is non-positive.
    """
    if num_pointers <= 0 or universe <= 0:
        raise CodecValueError(
            f"need positive pointer count and universe, got "
            f"{num_pointers}/{universe}"
        )
    density = min(num_pointers / universe, 1.0 - 1e-12)
    if density <= 0.0:
        return 1
    parameter = math.ceil(math.log(2.0 - density) / -math.log(1.0 - density))
    return max(1, parameter)


class GolombCodec(IntegerCodec):
    """Golomb code with arbitrary parameter ``b``.

    A value n >= 0 is split into quotient q = n // b (unary) and
    remainder r = n % b (truncated binary).

    Raises:
        CodecValueError: at construction if ``b`` < 1.
    """

    name = "golomb"

    def __init__(self, parameter: int = 16) -> None:
        if parameter < 1:
            raise CodecValueError(f"Golomb parameter must be >= 1, got {parameter}")
        self.parameter = parameter
        # Truncated binary: ceil(log2 b) bits normally, one fewer for the
        # first `threshold` remainders.
        if parameter > 1:
            ceil_bits = (parameter - 1).bit_length()
            self._remainder_bits = ceil_bits
            self._threshold = (1 << ceil_bits) - parameter
        else:
            self._remainder_bits = 0
            self._threshold = 0

    @classmethod
    def for_density(cls, num_pointers: int, universe: int) -> "GolombCodec":
        """A codec with the Bernoulli-optimal parameter for a gap list."""
        return cls(optimal_golomb_parameter(num_pointers, universe))

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_non_negative(value)
        quotient, remainder = divmod(value, self.parameter)
        writer.write_unary(quotient)
        if not self._remainder_bits:
            return
        if remainder < self._threshold:
            writer.write_bits(remainder, self._remainder_bits - 1)
        else:
            writer.write_bits(remainder + self._threshold, self._remainder_bits)

    def decode_value(self, reader: BitReader) -> int:
        quotient = reader.read_unary()
        if not self._remainder_bits:
            return quotient * self.parameter
        remainder = reader.read_bits(self._remainder_bits - 1)
        if remainder >= self._threshold:
            remainder = (
                (remainder << 1) | reader.read_bits(1)
            ) - self._threshold
        return quotient * self.parameter + remainder

    def code_length(self, value: int) -> int:
        self._check_non_negative(value)
        quotient, remainder = divmod(value, self.parameter)
        if not self._remainder_bits:
            return quotient + 1
        remainder_bits = self._remainder_bits - (remainder < self._threshold)
        return quotient + 1 + remainder_bits


class RiceCodec(GolombCodec):
    """Rice code: Golomb restricted to power-of-two parameters.

    The remainder is then a plain fixed-width field, which is the form
    hardware and byte-oriented implementations prefer.

    Raises:
        CodecValueError: at construction if ``log2_parameter`` < 0.
    """

    name = "rice"

    def __init__(self, log2_parameter: int = 4) -> None:
        if log2_parameter < 0:
            raise CodecValueError(
                f"Rice log2 parameter must be >= 0, got {log2_parameter}"
            )
        super().__init__(1 << log2_parameter)
        self.log2_parameter = log2_parameter

    @classmethod
    def for_density(cls, num_pointers: int, universe: int) -> "RiceCodec":
        """The Rice codec nearest the Bernoulli-optimal Golomb parameter."""
        target = optimal_golomb_parameter(num_pointers, universe)
        log2 = max(0, round(math.log2(target))) if target > 1 else 0
        return cls(log2)
