"""Homology search at (small) scale: partitioned vs. the rivals.

Generates a GenBank-like collection with planted homologous families,
then runs the same query set through all four engines and reports per-
engine wall-clock time and family recall — a miniature of the paper's
headline comparison (experiment E4).

Run with::

    python examples/homology_search.py [--sequences 400] [--queries 10]
"""

from __future__ import annotations

import argparse
import time

from repro import (
    ExhaustiveSearcher,
    FastaLikeSearcher,
    BlastLikeSearcher,
    IndexParameters,
    MemorySequenceSource,
    PartitionedSearchEngine,
    WorkloadSpec,
    build_index,
    generate_collection,
    make_family_queries,
)
from repro.eval.metrics import recall_at


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sequences", type=int, default=400)
    parser.add_argument("--queries", type=int, default=10)
    parser.add_argument("--mean-length", type=int, default=800)
    args = parser.parse_args()

    spec = WorkloadSpec(
        num_families=args.sequences // 20,
        family_size=4,
        num_background=args.sequences - 4 * (args.sequences // 20),
        mean_length=args.mean_length,
        seed=42,
    )
    collection = generate_collection(spec)
    records = list(collection.sequences)
    cases = make_family_queries(collection, args.queries, query_length=200)
    print(
        f"collection: {len(records)} sequences, "
        f"{collection.total_bases:,} bases; {len(cases)} queries\n"
    )

    print("building interval index (k=8)...")
    started = time.perf_counter()
    index = build_index(records, IndexParameters(interval_length=8))
    print(f"  built in {time.perf_counter() - started:.2f}s, "
          f"{index.compressed_bytes:,} posting bytes\n")

    source = MemorySequenceSource(records)
    engines = {
        "partitioned (cutoff=100)": PartitionedSearchEngine(
            index, source, coarse_cutoff=100
        ),
        "exhaustive smith-waterman": ExhaustiveSearcher(
            records
        ),
        "fasta-like diagonal scan": FastaLikeSearcher(records),
        "blast-like seed+extend": BlastLikeSearcher(records),
    }

    measurements = {}
    for name, engine in engines.items():
        started = time.perf_counter()
        recalls = []
        for case in cases:
            report = engine.search(case.query, top_k=10)
            recalls.append(recall_at(report.ordinals(), case.relevant, 10))
        elapsed = (time.perf_counter() - started) / len(cases)
        measurements[name] = (elapsed, sum(recalls) / len(recalls))

    exhaustive_time = measurements["exhaustive smith-waterman"][0]
    print(f"{'engine':<28} {'ms/query':>9} {'recall@10':>10} {'speedup':>8}")
    for name, (elapsed, recall) in measurements.items():
        print(
            f"{name:<28} {elapsed * 1000:>9.1f} {recall:>10.2f} "
            f"{exhaustive_time / elapsed:>7.1f}x"
        )

    print(
        "\nThe partitioned engine aligns only the coarse candidates, so its"
        "\nper-query cost is independent of collection size — the paper's"
        "\ncentral claim (it grows with the candidate volume instead)."
    )


if __name__ == "__main__":
    main()
