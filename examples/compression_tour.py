"""Compression tour: integer codes on real posting gaps + direct coding.

Shows (1) how the integer-coding families compare on the gap
distributions an interval index actually produces, and (2) what the
cino-style direct sequence coding buys over ASCII storage.

Run with::

    python examples/compression_tour.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import IndexParameters, WorkloadSpec, build_index, generate_collection
from repro.compression import (
    EliasDeltaCodec,
    EliasGammaCodec,
    GolombCodec,
    UnaryCodec,
    VByteCodec,
    encode_sequence,
    measure,
)


def gather_document_gaps(index) -> list[int]:
    """The d-gap stream the index's doc codec actually sees."""
    gaps: list[int] = []
    for interval in index.interval_ids():
        _, docs, _ = index.read_lists([interval])
        previous = -1
        for doc in docs.tolist():
            gaps.append(doc - previous - 1)
            previous = doc
    return gaps


def main() -> None:
    collection = generate_collection(
        WorkloadSpec(num_families=10, family_size=3, num_background=170,
                     mean_length=500, seed=8)
    )
    records = list(collection.sequences)
    index = build_index(records, IndexParameters(interval_length=8))
    gaps = gather_document_gaps(index)
    universe = index.collection.num_sequences
    print(f"{len(gaps):,} document gaps from a {universe}-sequence index "
          f"(mean gap {np.mean(gaps):.1f})\n")

    codecs = {
        "unary": UnaryCodec(),
        "elias gamma": EliasGammaCodec(),
        "elias delta": EliasDeltaCodec(),
        "golomb (derived b)": GolombCodec.for_density(
            max(1, len(gaps) // index.vocabulary_size or 1), universe
        ),
        "vbyte": VByteCodec(),
    }
    print(f"{'codec':<20} {'bits/gap':>9} {'encode ms':>10} {'decode ms':>10}")
    for name, codec in codecs.items():
        started = time.perf_counter()
        data = codec.encode_array(gaps)
        encode_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        decoded = codec.decode_array(data, len(gaps))
        decode_ms = (time.perf_counter() - started) * 1000
        assert decoded == gaps
        print(f"{name:<20} {8 * len(data) / len(gaps):>9.2f} "
              f"{encode_ms:>10.1f} {decode_ms:>10.1f}")

    print("\n-- direct sequence coding (cino) --")
    stats = measure([record.codes for record in records])
    ascii_bytes = sum(len(record) for record in records)
    coded_bytes = stats.compressed_bytes
    print(f"ASCII storage : {ascii_bytes:>9,} bytes (8.00 bits/base)")
    print(f"direct coding : {coded_bytes:>9,} bytes "
          f"({stats.bits_per_base:.2f} bits/base)")
    started = time.perf_counter()
    payloads = [encode_sequence(record.codes) for record in records]
    encode_s = time.perf_counter() - started
    from repro.compression import decode_sequence

    started = time.perf_counter()
    for payload in payloads:
        decode_sequence(payload)
    decode_s = time.perf_counter() - started
    print(f"encode {ascii_bytes / encode_s / 1e6:.0f} MB/s, "
          f"decode {ascii_bytes / decode_s / 1e6:.0f} MB/s "
          "(decode is the number that matters at query time)")


if __name__ == "__main__":
    main()
