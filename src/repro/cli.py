"""Command-line front end.

Subcommands mirror the life cycle of the paper's system::

    repro generate  — synthesise a FASTA collection with planted families
    repro build     — build a (possibly sharded) database directory
    repro index     — build the interval index (+ sequence store) on disk
    repro stats     — print index size statistics
    repro search    — evaluate FASTA queries against an on-disk index
    repro profile   — profile a query workload, write BENCH_profile.json
    repro align     — pretty-print the local alignment of two sequences
    repro verify    — audit a database directory's integrity
    repro repair    — rebuild a database's index from its store
    repro ingest    — append FASTA records as a delta shard (live layer)
    repro delete    — tombstone records by identifier
    repro compact   — fold deltas and tombstones back into base shards
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.align.pairwise import local_align
from repro.align.scoring import ScoringScheme
from repro.errors import ReproError
from repro.index.builder import IndexParameters, build_index
from repro.index.statistics import collect_statistics
from repro.index.storage import read_index, write_index
from repro.index.store import read_store, write_store
from repro.search.coarse import SCORERS
from repro.search.engine import FINE_MODES, PartitionedSearchEngine
from repro.sequences.fasta import read_fasta, write_fasta
from repro.sequences.mutate import MutationModel
from repro.workloads.queries import make_family_queries
from repro.workloads.synthetic import WorkloadSpec, generate_collection


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        num_families=args.families,
        family_size=args.family_size,
        num_background=args.background,
        mean_length=args.mean_length,
        mutation=MutationModel(args.mutation_rate, 0.02, 0.02),
        seed=args.seed,
    )
    collection = generate_collection(spec)
    write_fasta(collection.sequences, args.output)
    print(
        f"wrote {len(collection.sequences)} sequences "
        f"({collection.total_bases} bases) to {args.output}"
    )
    if args.queries:
        cases = make_family_queries(
            collection, args.num_queries, args.query_length, seed=args.seed + 1
        )
        write_fasta([case.query for case in cases], args.queries)
        print(f"wrote {len(cases)} queries to {args.queries}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    sequences = list(read_fasta(args.collection))
    params = IndexParameters(
        interval_length=args.interval_length, stride=args.stride
    )
    started = time.perf_counter()
    index = build_index(sequences, params)
    elapsed = time.perf_counter() - started
    index_bytes = write_index(index, args.output)
    print(
        f"indexed {len(sequences)} sequences in {elapsed:.2f}s: "
        f"{index.vocabulary_size} intervals, {index_bytes} bytes -> {args.output}"
    )
    if args.store:
        store_bytes = write_store(sequences, args.store, coding=args.coding)
        print(f"wrote {args.coding} sequence store ({store_bytes} bytes) -> {args.store}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with read_index(args.index) as index:
        stats = collect_statistics(index)
    print(f"interval length     : {stats.interval_length}")
    print(f"stride              : {stats.stride}")
    print(f"vocabulary size     : {stats.vocabulary_size}")
    print(f"sequence pointers   : {stats.pointer_count}")
    print(f"interval occurrences: {stats.occurrence_count}")
    print(f"compressed bytes    : {stats.compressed_bytes}")
    print(f"bits per pointer    : {stats.bits_per_pointer:.2f}")
    print(f"compression ratio   : {stats.compression_ratio:.2f}x")
    print(f"index/collection    : {stats.index_to_collection_ratio:.3f} bytes/base")
    print(f"df quantiles 50/90/99: {stats.df_quantiles}")
    return 0


def _print_instrumentation(
    instruments, queries: int, wall: float, coarse_backend: str | None = None
) -> None:
    """The ``--stats`` tail: phases, quarantine, counters, spans."""
    from repro.instrumentation.export import format_span_tree
    from repro.instrumentation.profiling import snapshot_from_instruments

    snapshot = snapshot_from_instruments(
        instruments, queries=queries, wall_seconds=wall
    )
    print("--- instrumentation ---")
    if coarse_backend is not None:
        print(f"coarse backend: {coarse_backend}")
    print(snapshot.describe())
    for name, value in sorted(snapshot.counters.items()):
        print(f"counter {name:<38} {value}")
    tree = format_span_tree(instruments.tracer)
    if tree:
        print("--- spans ---")
        print(tree)


def _cmd_search(args: argparse.Namespace) -> int:
    significance = None
    if args.evalues:
        from repro.align.statistics import calibrate_gapped

        significance = calibrate_gapped(ScoringScheme())
    instruments = None
    eventlog = None
    wants_instruments = (
        args.stats
        or args.trace_out is not None
        or args.metrics_out is not None
        or args.eventlog is not None
    )
    if wants_instruments:
        from repro.instrumentation.instruments import Instruments

        if args.eventlog is not None:
            from repro.instrumentation.eventlog import QueryEventLog

            eventlog = QueryEventLog(
                args.eventlog,
                sample_every=args.eventlog_sample,
                slow_seconds=(
                    args.slow_ms / 1000.0 if args.slow_ms is not None else None
                ),
            )
        instruments = Instruments(eventlog=eventlog)
    try:
        with read_index(args.index) as index, read_store(args.store) as store:
            engine = PartitionedSearchEngine(
                index,
                store,
                coarse_scorer=args.scorer,
                coarse_cutoff=args.cutoff,
                fine_mode=args.fine_mode,
                both_strands=args.both_strands,
                significance=significance,
                instruments=instruments,
            )
            evaluated = 0
            started = time.perf_counter()
            for query in read_fasta(args.queries):
                report = engine.search(query, top_k=args.top)
                evaluated += 1
                print(
                    f"query {report.query_identifier}: "
                    f"{len(report.hits)} answers, "
                    f"{report.candidates_examined} candidates, "
                    f"{report.total_seconds * 1000:.1f} ms"
                )
                for rank, hit in enumerate(report.hits, start=1):
                    line = (
                        f"  {rank:2d}. {hit.identifier:<20} "
                        f"score={hit.score:<6d} coarse={hit.coarse_score:.1f}"
                    )
                    if args.both_strands:
                        line += f" strand={hit.strand}"
                    if hit.evalue is not None:
                        line += f" evalue={hit.evalue:.2e}"
                    print(line)
            if args.stats and instruments is not None:
                _print_instrumentation(
                    instruments,
                    evaluated,
                    time.perf_counter() - started,
                    coarse_backend=engine.coarse_backend,
                )
            if args.metrics_out is not None:
                from repro.instrumentation.export import write_metrics

                target = write_metrics(
                    instruments.metrics,
                    args.metrics_out,
                    meta={"queries": evaluated},
                )
                print(f"wrote metrics -> {target}")
            if args.trace_out is not None:
                from repro.instrumentation.export import write_trace

                target = write_trace(
                    instruments.tracer,
                    args.trace_out,
                    meta={"queries": evaluated},
                )
                print(f"wrote trace -> {target}")
            if eventlog is not None:
                print(
                    f"event log: {eventlog.written}/{eventlog.seen} "
                    f"queries logged -> {args.eventlog}"
                )
    finally:
        if eventlog is not None:
            eventlog.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.database import Database
    from repro.instrumentation.instruments import Instruments
    from repro.search.resilience import RetryPolicy, ShardResilience
    from repro.serving.server import SearchServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        default_deadline_seconds=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
        max_in_flight=args.max_in_flight,
        queue_limit=args.queue_limit,
    )
    with Database.open(args.database) as database:
        resilience = None
        if database.num_shards > 1:
            resilience = ShardResilience(
                shard_timeout=(
                    args.shard_timeout_ms / 1000.0
                    if args.shard_timeout_ms
                    else None
                ),
                retry=RetryPolicy(max_attempts=args.shard_attempts),
                breaker_failures=args.breaker_failures,
            )
        engine = database.engine(
            both_strands=args.both_strands, resilience=resilience
        )
        # A served deployment always gets instruments: /metrics and
        # /stats are part of the surface, not an opt-in.
        server = SearchServer(engine, config, instruments=Instruments())
        server.start()
        print(f"serving {args.database} on {server.url} (Ctrl-C to stop)")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            server.stop()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.instrumentation.profiling import profile_search

    given = [args.index, args.store, args.queries]
    if any(given) and not all(given):
        print(
            "error: profile needs --index, --store and --queries together "
            "(or none of them, for a synthetic workload)",
            file=sys.stderr,
        )
        return 1

    def run(engine, queries, meta):
        snapshot = profile_search(
            engine,
            queries,
            top_k=args.top,
            repeat=args.repeat,
            meta=meta,
        )
        target = snapshot.write(args.output)
        print(snapshot.describe())
        print(f"wrote profile -> {target}")
        return 0

    if args.index:
        with read_index(args.index) as index, read_store(args.store) as store:
            engine = PartitionedSearchEngine(
                index,
                store,
                coarse_scorer=args.scorer,
                coarse_cutoff=args.cutoff,
            )
            queries = list(read_fasta(args.queries))
            return run(
                engine,
                queries,
                {"workload": str(args.queries), "cutoff": args.cutoff},
            )

    # Synthetic in-memory workload: self-contained, reproducible, small
    # enough for CI.
    from repro.index.store import MemorySequenceSource

    spec = WorkloadSpec(
        num_families=args.families,
        family_size=args.family_size,
        num_background=args.background,
        mean_length=args.mean_length,
        mutation=MutationModel(0.1, 0.02, 0.02),
        seed=args.seed,
    )
    collection = generate_collection(spec)
    cases = make_family_queries(
        collection, args.num_queries, args.query_length, seed=args.seed + 1
    )
    index = build_index(collection.sequences, IndexParameters())
    engine = PartitionedSearchEngine(
        index,
        MemorySequenceSource(collection.sequences),
        coarse_scorer=args.scorer,
        coarse_cutoff=args.cutoff,
    )
    return run(
        engine,
        [case.query for case in cases],
        {
            "workload": "synthetic",
            "sequences": len(collection.sequences),
            "total_bases": collection.total_bases,
            "cutoff": args.cutoff,
            "seed": args.seed,
        },
    )


def _cmd_db_create(args: argparse.Namespace) -> int:
    from repro.database import Database

    params = IndexParameters(
        interval_length=args.interval_length, stride=args.stride
    )
    coarse_params = {}
    if args.signature_fpr is not None:
        coarse_params["false_positive_rate"] = args.signature_fpr
    if args.signature_hashes is not None:
        coarse_params["hashes"] = args.signature_hashes
    if args.docs_per_block is not None:
        coarse_params["docs_per_block"] = args.docs_per_block
    if coarse_params and args.coarse_backend != "signature":
        print(
            "error: --signature-fpr/--signature-hashes/--docs-per-block "
            "need --coarse-backend signature",
            file=sys.stderr,
        )
        return 2
    started = time.perf_counter()
    with Database.create(
        read_fasta(args.collection), args.output, params=params,
        coding=args.coding, shards=args.shards, workers=args.workers,
        coarse_backend=args.coarse_backend,
        coarse_params=coarse_params or None,
    ) as database:
        elapsed = time.perf_counter() - started
        print(database.describe())
        print(
            f"built {database.num_shards} shard(s) with "
            f"{args.workers} worker(s) in {elapsed:.2f}s"
        )
    return 0


def _cmd_db_info(args: argparse.Namespace) -> int:
    from repro.database import Database

    with Database.open(args.database) as database:
        print(database.describe())
    return 0


def _cmd_db_search(args: argparse.Namespace) -> int:
    from repro.database import Database

    with Database.open(args.database) as database:
        for query in read_fasta(args.queries):
            report = database.search(
                query,
                top_k=args.top,
                coarse_cutoff=args.cutoff,
                both_strands=args.both_strands,
                with_evalues=args.evalues,
            )
            print(
                f"query {report.query_identifier}: {len(report.hits)} answers"
            )
            for rank, hit in enumerate(report.hits, start=1):
                line = f"  {rank:2d}. {hit.identifier:<20} score={hit.score}"
                if args.both_strands:
                    line += f" strand={hit.strand}"
                if hit.evalue is not None:
                    line += f" evalue={hit.evalue:.2e}"
                print(line)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.database import Database

    report = Database.verify(args.database)
    for note in report.notes:
        print(f"note: {note}")
    for issue in report.issues:
        print(f"PROBLEM: {issue}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.database import Database

    before = Database.verify(args.database)
    if before.ok and not args.force:
        print(f"{args.database}: already intact, nothing to repair "
              "(use --force to rebuild anyway)")
        return 0
    for issue in before.issues:
        print(f"repairing: {issue}")
    with Database.repair(args.database) as database:
        print(f"rebuilt index from store: {database.describe()}")
    after = Database.verify(args.database)
    print(after.summary())
    return 0 if after.ok else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.database import Database

    records = list(read_fasta(args.collection))
    with Database.open(args.database) as database:
        generation = database.add_records(records)
        print(
            f"ingested {len(records)} record(s) as one delta shard; "
            f"generation {generation}, {database.delta_shards} delta "
            f"shard(s) pending compaction"
        )
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    from repro.database import Database

    with Database.open(args.database) as database:
        before = len(database)
        generation = database.delete(args.identifiers)
        print(
            f"deleted {before - len(database)} record(s); "
            f"generation {generation}, {database.tombstone_count} "
            f"tombstone(s) pending compaction"
        )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.database import Database

    started = time.perf_counter()
    with Database.open(args.database) as database:
        before = database.generation
        generation = database.compact(
            shards=args.shards, workers=args.workers
        )
        if generation == before:
            print(f"{args.database}: nothing to compact")
        else:
            print(
                f"compacted into {database.num_shards} base shard(s) in "
                f"{time.perf_counter() - started:.2f}s; generation "
                f"{generation}"
            )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from repro.eval.metrics import ranking_overlap
    from repro.search.exhaustive import ExhaustiveSearcher

    queries = list(read_fasta(args.queries))
    if not queries:
        print("error: no queries", file=sys.stderr)
        return 1
    with read_index(args.index) as index, read_store(args.store) as store:
        engine = PartitionedSearchEngine(
            index, store, coarse_cutoff=args.cutoff
        )
        exhaustive = ExhaustiveSearcher(store)
        overlaps = []
        speedups = []
        print(f"{'query':<24} {'part ms':>8} {'exh ms':>8} "
              f"{'overlap@' + str(args.top):>10}")
        for query in queries:
            partitioned = engine.search(query, top_k=args.top)
            oracle = exhaustive.search(query, top_k=args.top)
            overlap = ranking_overlap(
                partitioned.ordinals(), oracle.ordinals(), args.top
            )
            overlaps.append(overlap)
            if partitioned.total_seconds > 0:
                speedups.append(
                    oracle.total_seconds / partitioned.total_seconds
                )
            print(
                f"{query.identifier:<24} "
                f"{partitioned.total_seconds * 1000:>8.1f} "
                f"{oracle.total_seconds * 1000:>8.1f} "
                f"{overlap:>10.2f}"
            )
        mean_overlap = sum(overlaps) / len(overlaps)
        mean_speedup = sum(speedups) / len(speedups) if speedups else 0.0
        print(f"\nmean overlap@{args.top}: {mean_overlap:.2f}   "
              f"mean speedup: {mean_speedup:.1f}x")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    first = next(iter(read_fasta(args.first)))
    second = next(iter(read_fasta(args.second)))
    scheme = ScoringScheme(args.match, args.mismatch, args.gap)
    alignment = local_align(first.codes, second.codes, scheme)
    print(f"{first.identifier} vs {second.identifier}")
    print(alignment.pretty())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partitioned interval-index search for nucleotide databases",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesise a collection with planted families"
    )
    generate.add_argument("--families", type=int, default=20)
    generate.add_argument("--family-size", type=int, default=5)
    generate.add_argument("--background", type=int, default=400)
    generate.add_argument("--mean-length", type=int, default=1000)
    generate.add_argument("--mutation-rate", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--queries", type=Path, default=None)
    generate.add_argument("--num-queries", type=int, default=20)
    generate.add_argument("--query-length", type=int, default=200)
    generate.add_argument("-o", "--output", type=Path, required=True)
    generate.set_defaults(handler=_cmd_generate)

    index = commands.add_parser("index", help="build an on-disk index")
    index.add_argument("collection", type=Path)
    index.add_argument("-o", "--output", type=Path, required=True)
    index.add_argument("-k", "--interval-length", type=int, default=8)
    index.add_argument("--stride", type=int, default=1)
    index.add_argument("--store", type=Path, default=None)
    index.add_argument("--coding", choices=("direct", "raw"), default="direct")
    index.set_defaults(handler=_cmd_index)

    stats = commands.add_parser("stats", help="print index statistics")
    stats.add_argument("index", type=Path)
    stats.set_defaults(handler=_cmd_stats)

    search = commands.add_parser("search", help="evaluate FASTA queries")
    search.add_argument("index", type=Path)
    search.add_argument("store", type=Path)
    search.add_argument("queries", type=Path)
    search.add_argument("--cutoff", type=int, default=100)
    search.add_argument("--top", type=int, default=10)
    search.add_argument(
        "--scorer",
        choices=tuple(SCORERS),
        default="count",
    )
    search.add_argument("--fine-mode", choices=FINE_MODES, default="full")
    search.add_argument("--both-strands", action="store_true")
    search.add_argument(
        "--evalues",
        action="store_true",
        help="calibrate Gumbel parameters and report E-values",
    )
    search.add_argument(
        "--stats",
        action="store_true",
        help="print instrumentation counters, phase latencies and the "
        "captured span tree after the workload",
    )
    search.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="export the metrics registry after the workload "
        "(.json -> JSON snapshot, anything else -> Prometheus text)",
    )
    search.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="export captured spans as Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    search.add_argument(
        "--eventlog", type=Path, default=None, metavar="FILE",
        help="append one JSONL record per evaluated query to FILE",
    )
    search.add_argument(
        "--eventlog-sample", type=int, default=1, metavar="N",
        help="log every Nth query (slow queries are always logged)",
    )
    search.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="queries at or above this latency bypass event-log sampling",
    )
    search.set_defaults(handler=_cmd_search)

    profile = commands.add_parser(
        "profile",
        help="profile a query workload and write a BENCH_profile.json",
    )
    profile.add_argument(
        "--index", type=Path, default=None,
        help="on-disk index (omit for a synthetic in-memory workload)",
    )
    profile.add_argument("--store", type=Path, default=None)
    profile.add_argument("--queries", type=Path, default=None)
    profile.add_argument("--cutoff", type=int, default=100)
    profile.add_argument("--top", type=int, default=10)
    profile.add_argument(
        "--repeat", type=int, default=1,
        help="whole-workload repetitions",
    )
    profile.add_argument(
        "--scorer",
        choices=tuple(SCORERS),
        default="count",
    )
    profile.add_argument("--families", type=int, default=8)
    profile.add_argument("--family-size", type=int, default=4)
    profile.add_argument("--background", type=int, default=60)
    profile.add_argument("--mean-length", type=int, default=400)
    profile.add_argument("--num-queries", type=int, default=8)
    profile.add_argument("--query-length", type=int, default=120)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_profile.json")
    )
    profile.set_defaults(handler=_cmd_profile)

    serve = commands.add_parser(
        "serve",
        help="serve a database over HTTP (deadlines + admission control)",
    )
    serve.add_argument("database", type=Path, help="database directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--deadline-ms", type=float, default=2000.0,
        help="default per-request deadline (0 disables)",
    )
    serve.add_argument("--max-in-flight", type=int, default=4)
    serve.add_argument("--queue-limit", type=int, default=16)
    serve.add_argument(
        "--shard-timeout-ms", type=float, default=0.0,
        help="per-shard attempt timeout (sharded databases; 0 disables)",
    )
    serve.add_argument(
        "--shard-attempts", type=int, default=3,
        help="attempts per shard call before the shard is dropped",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=5,
        help="consecutive failures that open a shard's circuit breaker",
    )
    serve.add_argument("--both-strands", action="store_true")
    serve.set_defaults(handler=_cmd_serve)

    for name, help_text in (
        ("build", "build a persistent (optionally sharded) database"),
        ("db-create", "build a persistent database directory"),
    ):
        db_create = commands.add_parser(name, help=help_text)
        db_create.add_argument("collection", type=Path)
        db_create.add_argument("-o", "--output", type=Path, required=True)
        db_create.add_argument("-k", "--interval-length", type=int, default=8)
        db_create.add_argument("--stride", type=int, default=1)
        db_create.add_argument(
            "--coding", choices=("direct", "raw"), default="direct"
        )
        db_create.add_argument(
            "--shards", type=int, default=1, metavar="N",
            help="split the collection into N contiguous shards "
            "(1 = classic single-index layout)",
        )
        db_create.add_argument(
            "--workers", type=int, default=1, metavar="M",
            help="build up to M shards in parallel worker processes",
        )
        db_create.add_argument(
            "--coarse-backend", choices=("inverted", "signature"),
            default="inverted",
            help="coarse artifact each shard builds: the posting-list "
            "inverted index (default) or the bit-sliced signature index",
        )
        db_create.add_argument(
            "--signature-fpr", type=float, default=None, metavar="RATE",
            help="signature backend: per-k-mer Bloom false-positive "
            "rate in (0, 1) (default 0.3; lower = bigger, more exact)",
        )
        db_create.add_argument(
            "--signature-hashes", type=int, default=None, metavar="H",
            help="signature backend: Bloom hash functions per k-mer "
            "(default 1)",
        )
        db_create.add_argument(
            "--docs-per-block", type=int, default=None, metavar="D",
            help="signature backend: documents packed per bit-sliced "
            "block (default 64)",
        )
        db_create.set_defaults(handler=_cmd_db_create)

    db_info = commands.add_parser(
        "db-info", help="describe a database directory"
    )
    db_info.add_argument("database", type=Path)
    db_info.set_defaults(handler=_cmd_db_info)

    db_search = commands.add_parser(
        "db-search", help="search a database directory"
    )
    db_search.add_argument("database", type=Path)
    db_search.add_argument("queries", type=Path)
    db_search.add_argument("--cutoff", type=int, default=100)
    db_search.add_argument("--top", type=int, default=10)
    db_search.add_argument("--both-strands", action="store_true")
    db_search.add_argument("--evalues", action="store_true")
    db_search.set_defaults(handler=_cmd_db_search)

    verify = commands.add_parser(
        "verify", help="audit a database directory's integrity"
    )
    verify.add_argument("database", type=Path)
    verify.set_defaults(handler=_cmd_verify)

    repair = commands.add_parser(
        "repair", help="rebuild a database's index from its store"
    )
    repair.add_argument("database", type=Path)
    repair.add_argument(
        "--force", action="store_true",
        help="rebuild even when the database verifies as intact",
    )
    repair.set_defaults(handler=_cmd_repair)

    ingest = commands.add_parser(
        "ingest",
        help="append FASTA records to a database as one delta shard",
    )
    ingest.add_argument("database", type=Path)
    ingest.add_argument("collection", type=Path, help="FASTA of new records")
    ingest.set_defaults(handler=_cmd_ingest)

    delete = commands.add_parser(
        "delete", help="tombstone database records by identifier"
    )
    delete.add_argument("database", type=Path)
    delete.add_argument(
        "identifiers", nargs="+", metavar="IDENTIFIER",
        help="record identifiers to delete (every live match)",
    )
    delete.set_defaults(handler=_cmd_delete)

    compact = commands.add_parser(
        "compact",
        help="fold delta shards and tombstones back into base shards",
    )
    compact.add_argument("database", type=Path)
    compact.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="base shard count to compact into (default: keep current)",
    )
    compact.add_argument(
        "--workers", type=int, default=1, metavar="M",
        help="rebuild up to M shards in parallel worker processes",
    )
    compact.set_defaults(handler=_cmd_compact)

    oracle = commands.add_parser(
        "oracle",
        help="compare partitioned answers against exhaustive search",
    )
    oracle.add_argument("index", type=Path)
    oracle.add_argument("store", type=Path)
    oracle.add_argument("queries", type=Path)
    oracle.add_argument("--cutoff", type=int, default=100)
    oracle.add_argument("--top", type=int, default=10)
    oracle.set_defaults(handler=_cmd_oracle)

    align = commands.add_parser("align", help="align two FASTA sequences")
    align.add_argument("first", type=Path)
    align.add_argument("second", type=Path)
    align.add_argument("--match", type=int, default=1)
    align.add_argument("--mismatch", type=int, default=-1)
    align.add_argument("--gap", type=int, default=-2)
    align.set_defaults(handler=_cmd_align)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
