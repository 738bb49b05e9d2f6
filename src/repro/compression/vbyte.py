"""Variable-byte integer code.

Seven payload bits per byte with a continuation flag in the high bit
(1 = more bytes follow), least-significant group first.  Byte alignment
makes it the fastest of the codecs to decode at a modest cost in space —
the trade-off the E2 experiment quantifies.
"""

from __future__ import annotations

from typing import Iterable

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.integer import IntegerCodec


class VByteCodec(IntegerCodec):
    """Variable-byte code over non-negative integers."""

    name = "vbyte"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_non_negative(value)
        while value >= 0x80:
            writer.write_bits(0x80 | (value & 0x7F), 8)
            value >>= 7
        writer.write_bits(value, 8)

    def decode_value(self, reader: BitReader) -> int:
        value = 0
        shift = 0
        while True:
            byte = reader.read_bits(8)
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def code_length(self, value: int) -> int:
        self._check_non_negative(value)
        return 8 * max(1, (value.bit_length() + 6) // 7)

    def encode_array(self, values: Iterable[int]) -> bytes:
        """Byte-level fast path (no bit accumulator)."""
        out = bytearray()
        for value in values:
            self._check_non_negative(value)
            while value >= 0x80:
                out.append(0x80 | (value & 0x7F))
                value >>= 7
            out.append(value)
        return bytes(out)

    def decode_array(self, data: bytes, count: int) -> list[int]:
        """Byte-level fast path matching :meth:`encode_array`."""
        values: list[int] = []
        value = 0
        shift = 0
        for byte in data:
            value |= (byte & 0x7F) << shift
            if byte & 0x80:
                shift += 7
            else:
                values.append(value)
                value = 0
                shift = 0
                if len(values) == count:
                    return values
        if len(values) < count:
            from repro.errors import BitStreamError

            raise BitStreamError(
                f"vbyte stream held {len(values)} values, wanted {count}"
            )
        return values
