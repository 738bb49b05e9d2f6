"""Integer-codec interface and the unary baseline codec.

All codecs encode **non-negative** integers.  Codes whose textbook form
is defined only for positive integers (Elias gamma/delta) shift by one
internally, so from the caller's perspective every codec shares the same
domain and round-trips the same values.  This matches how the paper's
index uses them: document gaps are >= 1, in-sequence offsets and counts
can be stored directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.compression.bitio import BitReader, BitWriter
from repro.errors import CodecValueError


class IntegerCodec(ABC):
    """A self-delimiting binary code over non-negative integers."""

    #: The code's short name; subclasses set a class attribute.
    name: str = ""

    @abstractmethod
    def encode_value(self, writer: BitWriter, value: int) -> None:
        """Append the code for ``value`` to ``writer``."""

    @abstractmethod
    def decode_value(self, reader: BitReader) -> int:
        """Read one code from ``reader`` and return its value."""

    @abstractmethod
    def code_length(self, value: int) -> int:
        """Length in bits of the code for ``value`` (without encoding it)."""

    def encode_array(self, values: Iterable[int]) -> bytes:
        """Encode a stream of values into a zero-padded byte string."""
        writer = BitWriter()
        for value in values:
            self.encode_value(writer, value)
        return writer.getvalue()

    def decode_array(self, data: bytes, count: int) -> list[int]:
        """Decode exactly ``count`` values from ``data``.

        Raises:
            BitStreamError: if the stream holds fewer than ``count`` codes.
        """
        reader = BitReader(data)
        return [self.decode_value(reader) for _ in range(count)]

    def encoded_bit_length(self, values: Iterable[int]) -> int:
        """Total code length in bits for a stream of values."""
        return sum(self.code_length(value) for value in values)

    def _check_non_negative(self, value: int) -> None:
        if value < 0:
            raise CodecValueError(
                f"{self.name or type(self).__name__} cannot encode {value}"
            )


class UnaryCodec(IntegerCodec):
    """Unary code: ``n`` one-bits followed by a zero-bit.

    Only sensible for very small values; included as the baseline the
    parameterised codes are measured against.
    """

    name = "unary"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_non_negative(value)
        writer.write_unary(value)

    def decode_value(self, reader: BitReader) -> int:
        return reader.read_unary()

    def code_length(self, value: int) -> int:
        self._check_non_negative(value)
        return value + 1


class FixedWidthCodec(IntegerCodec):
    """Plain binary in a fixed number of bits — the "uncompressed" control.

    Raises:
        CodecValueError: at construction if ``width`` is not positive, or
            at encode time if a value does not fit.
    """

    name = "fixed"

    def __init__(self, width: int = 32) -> None:
        if width <= 0:
            raise CodecValueError(f"fixed width must be positive, got {width}")
        self.width = width

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_non_negative(value)
        writer.write_bits(value, self.width)

    def decode_value(self, reader: BitReader) -> int:
        return reader.read_bits(self.width)

    def code_length(self, value: int) -> int:
        self._check_non_negative(value)
        if value.bit_length() > self.width:
            raise CodecValueError(
                f"{value} does not fit in {self.width} bits"
            )
        return self.width
