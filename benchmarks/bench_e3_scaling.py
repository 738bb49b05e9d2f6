"""E3 bench targets: query evaluation vs collection size and shards.

The shape to look for in the results: exhaustive per-query time roughly
doubles with the collection, partitioned time stays near-flat.

Run as a script for the shard sweep (``python benchmarks/bench_e3_scaling.py
--output BENCH_shards.json``): per shard count it measures wall-clock
database build time with 1 worker vs N workers, mean query latency
through the sharded engine, and checks hit-for-hit parity against the
single-shard answers.
"""

import pytest

from benchmarks import workload_setup as setup

SIZES = [100, 400]


@pytest.mark.parametrize("num_sequences", SIZES)
def test_partitioned_query(benchmark, num_sequences):
    _, engine, _, queries = setup.scaled_setup(num_sequences)
    query = queries[0].query
    report = benchmark.pedantic(
        engine.search, args=(query,), kwargs={"top_k": 10},
        rounds=5, iterations=1,
    )
    benchmark.extra_info["collection_sequences"] = num_sequences
    benchmark.extra_info["candidates"] = report.candidates_examined
    assert report.best() is not None


@pytest.mark.parametrize("num_sequences", SIZES)
def test_exhaustive_query(benchmark, num_sequences):
    _, _, exhaustive, queries = setup.scaled_setup(num_sequences)
    query = queries[0].query
    report = benchmark.pedantic(
        exhaustive.search, args=(query,), kwargs={"top_k": 10},
        rounds=3, iterations=1,
    )
    benchmark.extra_info["collection_sequences"] = num_sequences
    assert report.candidates_examined == num_sequences


@pytest.mark.parametrize("num_sequences", SIZES)
def test_coarse_phase_only(benchmark, num_sequences):
    from repro.search.coarse import CoarseRanker

    records, engine, _, queries = setup.scaled_setup(num_sequences)
    ranker = CoarseRanker(engine.shards[0][0])
    candidates = benchmark.pedantic(
        ranker.rank, args=(queries[0].query.codes, 50),
        rounds=5, iterations=1,
    )
    assert candidates


# -- shard sweep (script mode) ------------------------------------------


def _hit_key(report):
    return [(hit.ordinal, hit.score, hit.coarse_score) for hit in report.hits]


def run_shard_sweep(
    shard_counts, workers, num_sequences, num_queries, output
):
    """Build + query the same collection at several shard counts.

    Writes one JSON document: per shard count, build seconds with one
    worker and with ``workers`` workers (speedup = ratio), mean query
    latency, and whether every query's answers matched the one-shard
    baseline exactly.
    """
    import json
    import shutil
    import statistics
    import tempfile
    import time
    from pathlib import Path

    from repro.database import Database

    records, _, _, cases = setup.scaled_setup(num_sequences)
    records = list(records)
    queries = [case.query for case in cases[:num_queries]]
    results = []
    baseline_answers = None
    workdir = Path(tempfile.mkdtemp(prefix="bench_shards_"))
    try:
        for shards in shard_counts:
            row = {"shards": shards}
            for label, worker_count in (
                ("build_seconds_1_worker", 1),
                (f"build_seconds_{workers}_workers", workers),
            ):
                target = workdir / f"db_s{shards}_w{worker_count}"
                started = time.perf_counter()
                Database.create(
                    records, target, shards=shards, workers=worker_count
                ).close()
                row[label] = time.perf_counter() - started
            row["build_speedup"] = (
                row["build_seconds_1_worker"]
                / row[f"build_seconds_{workers}_workers"]
            )
            with Database.open(workdir / f"db_s{shards}_w{workers}") as db:
                latencies = []
                answers = []
                for query in queries:
                    started = time.perf_counter()
                    report = db.search(query, top_k=10)
                    latencies.append(time.perf_counter() - started)
                    answers.append(_hit_key(report))
                row["query_seconds_mean"] = statistics.mean(latencies)
            if baseline_answers is None:
                baseline_answers = answers
            row["parity_with_one_shard"] = answers == baseline_answers
            results.append(row)
            print(
                f"shards={shards}: build {row['build_seconds_1_worker']:.2f}s"
                f" -> {row[f'build_seconds_{workers}_workers']:.2f}s "
                f"({row['build_speedup']:.2f}x), "
                f"query {row['query_seconds_mean'] * 1000:.1f} ms, "
                f"parity={row['parity_with_one_shard']}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import os

    document = {
        "experiment": "shard_sweep",
        "collection_sequences": len(records),
        "queries": len(queries),
        "workers": workers,
        # Build speedup is bounded by the cores actually available;
        # on a single-core host workers=N can only show overhead.
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    Path(output).write_text(json.dumps(document, indent=2))
    print(f"wrote {output}")
    return document


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4],
        help="shard counts to sweep",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker processes for the parallel build measurement",
    )
    parser.add_argument("--sequences", type=int, default=400)
    parser.add_argument("--queries", type=int, default=6)
    parser.add_argument("-o", "--output", default="BENCH_shards.json")
    args = parser.parse_args(argv)
    document = run_shard_sweep(
        args.shards, args.workers, args.sequences, args.queries, args.output
    )
    return 0 if all(
        row["parity_with_one_shard"] for row in document["results"]
    ) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
