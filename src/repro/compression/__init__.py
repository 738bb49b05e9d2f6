"""Compression substrate: bit I/O, integer codes, direct sequence coding."""

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.direct import (
    DirectCodingStats,
    decode_sequence,
    encode_sequence,
    measure,
    raw_two_bit_size,
)
from repro.compression.elias import EliasDeltaCodec, EliasGammaCodec
from repro.compression.golomb import (
    GolombCodec,
    RiceCodec,
    optimal_golomb_parameter,
)
from repro.compression.integer import (
    FixedWidthCodec,
    IntegerCodec,
    UnaryCodec,
)
from repro.compression.vbyte import VByteCodec

__all__ = [
    "BitReader",
    "BitWriter",
    "DirectCodingStats",
    "EliasDeltaCodec",
    "EliasGammaCodec",
    "FixedWidthCodec",
    "GolombCodec",
    "IntegerCodec",
    "RiceCodec",
    "UnaryCodec",
    "VByteCodec",
    "decode_sequence",
    "encode_sequence",
    "measure",
    "optimal_golomb_parameter",
    "raw_two_bit_size",
]
