"""Benchmark producers: every suite ends in one canonical document.

Five producers, one output shape (:class:`~repro.bench.schema.BenchDocument`):

* :func:`run_quick` — a self-contained synthetic workload (CI-sized,
  seconds not minutes): index build time, per-phase latency
  percentiles from the instrumentation layer, mean query latency,
  throughput.  Needs nothing outside the installed package.
* :func:`run_experiments` — drives the E1–E8 tables in
  ``benchmarks/harness.py`` and flattens every numeric cell into a
  gated metric.  Needs the repository root on ``sys.path``
  (``PYTHONPATH=src:.``), like CI runs it.
* :func:`run_shard_sweep` — wraps the shard-scaling sweep in
  ``benchmarks/bench_e3_scaling.py``.
* :func:`run_kernel_bench` — times the coarse phase on the
  pure-Python decode floor versus the resolved vector tier
  (interleaved, min-of-rounds) and asserts hit-for-hit ranking
  identity between them.  Needs ``benchmarks/workload_setup.py``.
* :func:`run_lsm_bench` — the live-ingest suite: delta-shard ingest,
  base+delta+tombstone search, compaction, and hit-for-hit parity
  against a fresh rebuild of the same logical collection.  Needs
  nothing outside the installed package.

Flattened metric names are stable — ``e3.150.part_ms_q`` — because the
regression gate matches baseline and current by name.
"""

from __future__ import annotations

import importlib
import math
import re
import statistics
import time
from pathlib import Path

import numpy as np

from repro.bench.schema import BenchDocument, standard_meta
from repro.errors import ReproError

#: Column-name tokens marking a bigger-is-better metric (checked first).
_HIGHER_TOKENS = frozenset(
    {
        "speedup", "recall", "overlap", "oracle", "precision", "qps",
        "saved", "mgaps", "rate", "ap", "r", "p", "flat", "parity",
    }
)

#: Column-name tokens marking a smaller-is-better metric.
_LOWER_TOKENS = frozenset(
    {"ms", "seconds", "sec", "bytes", "bits", "kb", "mb"}
)

_UNIT_BY_TOKEN = {
    "ms": "ms",
    "seconds": "s",
    "sec": "s",
    "bytes": "bytes",
    "bits": "bits",
    "qps": "q/s",
    "mgaps": "Mgaps/s",
}


def _tokens(text: str) -> list[str]:
    return [token for token in re.split(r"[^a-z0-9]+", text.lower()) if token]


def _slug(text: str) -> str:
    return "_".join(_tokens(str(text))) or "row"


def column_direction(column: str) -> str:
    """Which way is better for a harness table column (by name)."""
    tokens = set(_tokens(column))
    if tokens & _HIGHER_TOKENS:
        return "higher"
    if tokens & _LOWER_TOKENS:
        return "lower"
    return "info"


def _column_unit(column: str) -> str:
    for token in _tokens(column):
        unit = _UNIT_BY_TOKEN.get(token)
        if unit:
            return unit
    return ""


def _as_float(value) -> float | None:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def flatten_table(table, document: BenchDocument) -> int:
    """Add every numeric cell of a harness Table as a canonical metric.

    Metric names are ``{experiment}.{row-key}.{column}``; the row key is
    the first column (first two columns when the first alone is not
    unique, as in E5's scorer/cutoff grid).  Returns how many metrics
    were added.
    """
    first_column = [row[0] for row in table.rows]
    wide_keys = len(set(map(str, first_column))) < len(table.rows)
    added = 0
    for row in table.rows:
        key = _slug(row[0])
        if wide_keys and len(row) > 1:
            key = f"{key}_{_slug(row[1])}"
        for column, value in zip(table.columns[1:], row[1:]):
            number = _as_float(value)
            if number is None:
                continue
            name = f"{table.experiment.lower()}.{key}.{_slug(column)}"
            document.add(
                name,
                number,
                unit=_column_unit(column),
                direction=column_direction(column),
            )
            added += 1
    return added


def _load_benchmarks(module: str):
    """Import a ``benchmarks.*`` module, with a helpful failure mode."""
    try:
        return importlib.import_module(f"benchmarks.{module}")
    except ImportError as exc:
        raise ReproError(
            f"this suite drives benchmarks/{module}.py, which needs the "
            "repository root on the module path — run from the checkout "
            "with PYTHONPATH=src:."
        ) from exc


def run_quick(
    families: int = 8,
    family_size: int = 4,
    background: int = 60,
    mean_length: int = 400,
    num_queries: int = 8,
    query_length: int = 120,
    seed: int = 1,
    repeat: int = 2,
    cutoff: int = 50,
    top_k: int = 10,
    cache_entries: int = 4096,
    inject_sleep_seconds: float = 0.0,
) -> BenchDocument:
    """The CI-sized synthetic suite: build + query the quick workload.

    ``inject_sleep_seconds`` adds an artificial per-query stall inside
    the timed region; it exists so the regression gate can be tested
    end-to-end (a slowed run must trip ``repro bench --compare``).
    """
    from repro.index.builder import IndexParameters, build_index
    from repro.index.store import MemorySequenceSource
    from repro.instrumentation.instruments import Instruments
    from repro.instrumentation.profiling import snapshot_from_instruments
    from repro.search.engine import PartitionedSearchEngine
    from repro.sequences.mutate import MutationModel
    from repro.workloads.queries import make_family_queries
    from repro.workloads.synthetic import WorkloadSpec, generate_collection

    spec = WorkloadSpec(
        num_families=families,
        family_size=family_size,
        num_background=background,
        mean_length=mean_length,
        mutation=MutationModel(0.1, 0.02, 0.02),
        seed=seed,
    )
    collection = generate_collection(spec)
    cases = make_family_queries(
        collection, num_queries, query_length, seed=seed + 1
    )
    queries = [case.query for case in cases]

    started = time.perf_counter()
    index = build_index(collection.sequences, IndexParameters())
    build_seconds = time.perf_counter() - started
    if cache_entries:
        index.enable_decode_cache(cache_entries)
    instruments = Instruments()
    engine = PartitionedSearchEngine(
        index,
        MemorySequenceSource(collection.sequences),
        coarse_cutoff=cutoff,
        instruments=instruments,
    )

    latencies = []
    wall_started = time.perf_counter()
    for _ in range(max(1, repeat)):
        for query in queries:
            query_started = time.perf_counter()
            engine.search(query, top_k=top_k)
            if inject_sleep_seconds > 0:
                time.sleep(inject_sleep_seconds)
            latencies.append(time.perf_counter() - query_started)
    wall_seconds = time.perf_counter() - wall_started
    evaluated = len(latencies)

    document = BenchDocument(
        "quick",
        meta=standard_meta(
            {
                "workload": {
                    "families": families,
                    "family_size": family_size,
                    "background": background,
                    "mean_length": mean_length,
                    "num_queries": num_queries,
                    "query_length": query_length,
                    "seed": seed,
                    "repeat": max(1, repeat),
                    "cutoff": cutoff,
                    "decode_cache": cache_entries,
                },
                "inject_sleep_seconds": inject_sleep_seconds,
            }
        ),
    )
    document.add("quick.build_seconds", build_seconds, "s", "lower")
    document.add(
        "quick.query_ms_mean", statistics.mean(latencies) * 1000.0, "ms"
    )
    document.add("quick.query_ms_max", max(latencies) * 1000.0, "ms")
    document.add(
        "quick.throughput_qps",
        evaluated / wall_seconds if wall_seconds > 0 else 0.0,
        "q/s",
        "higher",
    )
    snapshot = snapshot_from_instruments(
        instruments, queries=evaluated, wall_seconds=wall_seconds
    )
    for name, phase in sorted(snapshot.phases.items()):
        prefix = "quick." + name.removesuffix("_seconds")
        document.add(prefix + ".p50_ms", phase["p50_ms"], "ms")
        document.add(prefix + ".p99_ms", phase["p99_ms"], "ms")
    hit_rate = snapshot.decode_cache.get("hit_rate")
    if hit_rate is not None:
        document.add("quick.decode_cache_hit_rate", hit_rate, "", "higher")
    document.add("quick.queries", evaluated, "", "info")
    document.add(
        "quick.sequences", len(collection.sequences), "", "info"
    )
    document.add(
        "quick.total_bases", collection.total_bases, "", "info"
    )
    return document


def run_experiments(names) -> BenchDocument:
    """Run harness experiments and flatten their tables into one doc."""
    harness = _load_benchmarks(module="harness")
    requested = [str(name).upper() for name in names]
    unknown = [name for name in requested if name not in harness.EXPERIMENTS]
    if unknown:
        raise ReproError(
            f"unknown experiment(s) {unknown}; "
            f"known: {sorted(harness.EXPERIMENTS)}"
        )
    document = BenchDocument(
        "experiments", meta=standard_meta({"experiments": requested})
    )
    for name in requested:
        table = harness.EXPERIMENTS[name]()
        flatten_table(table, document)
    return document


def run_shard_sweep(
    shard_counts=(1, 2, 4),
    workers: int = 4,
    num_sequences: int = 400,
    num_queries: int = 6,
    raw_output: str | Path | None = None,
) -> BenchDocument:
    """The shard-scaling sweep as a canonical document.

    ``raw_output`` optionally keeps the sweep's native JSON next to the
    canonical one (the perf-trajectory tooling reads the native form).
    Build speedup is recorded as ``info``: it is bounded by the cores
    the host actually has, so gating on it would flag every smaller CI
    machine.  Hit-for-hit parity with the one-shard baseline *is*
    gated — it is a correctness property, not a timing.
    """
    import tempfile

    sweep = _load_benchmarks(module="bench_e3_scaling")
    cleanup = None
    if raw_output is None:
        handle = tempfile.NamedTemporaryFile(
            suffix=".json", delete=False
        )
        handle.close()
        raw_output = cleanup = Path(handle.name)
    try:
        native = sweep.run_shard_sweep(
            list(shard_counts), workers, num_sequences, num_queries,
            str(raw_output),
        )
    finally:
        if cleanup is not None:
            cleanup.unlink(missing_ok=True)
    document = BenchDocument(
        "shard_sweep",
        meta=standard_meta(
            {
                "workers": workers,
                "sequences": native["collection_sequences"],
                "queries": native["queries"],
                "cpu_count": native.get("cpu_count"),
            }
        ),
    )
    multi_key = f"build_seconds_{workers}_workers"
    for row in native["results"]:
        prefix = f"shards{row['shards']}"
        document.add(
            f"{prefix}.build_seconds_1_worker",
            row["build_seconds_1_worker"], "s", "lower",
        )
        document.add(
            f"{prefix}.build_seconds_parallel", row[multi_key], "s", "lower"
        )
        document.add(
            f"{prefix}.build_speedup", row["build_speedup"], "x", "info"
        )
        document.add(
            f"{prefix}.query_ms_mean",
            row["query_seconds_mean"] * 1000.0, "ms", "lower",
        )
        document.add(
            f"{prefix}.parity",
            1.0 if row["parity_with_one_shard"] else 0.0, "", "higher",
        )
    return document


def run_kernel_bench(
    num_sequences: int = 1200,
    rounds: int = 12,
    scorers=("count", "idf", "normalised", "diagonal"),
) -> BenchDocument:
    """The decode-kernel suite: coarse phase, vector tier vs floor.

    Times the coarse phase — posting-list decode through per-document
    accumulation, the work the E3 engine's own scorer does per query —
    over the E3 family queries on the pure-Python floor and on the
    resolved vector tier.  Vocabulary lookups are resolved once
    outside the timed region: they are tier-independent and belong to
    the lookup phase, not the decode phase, and both tiers run the
    exact same call sequence so only the tier flag differs.  The two
    tiers are timed strictly interleaved, one block each per round, so
    machine drift hits both sides equally; min-of-rounds is the point
    estimate (the most noise-robust statistic on a shared machine).

    Raw block times are recorded as ``info`` — they are facts about
    the machine, not the code.  What the regression gate holds are the
    machine-normalised ``kernel.speedup`` ratio and the correctness
    bit ``kernel.rank_identical``, which is 1.0 only when every one of
    ``scorers`` produces a bit-identical score vector on both tiers
    for every query.  A fast kernel that moves one score is a broken
    kernel.
    """
    from repro.compression import fastunpack
    from repro.search.coarse import CoarseRanker, make_scorer

    workload = _load_benchmarks(module="workload_setup")
    _records, engine, _exhaustive, cases = workload.scaled_setup(
        num_sequences
    )
    index, _source = engine.shards[0]
    ranker = CoarseRanker(index)
    stats = [
        ranker._frequency_filter(*ranker.query_intervals(case.query.codes))
        for case in cases
    ]
    timed_scorer = ranker.scorer
    scorer_objects = [make_scorer(name) for name in scorers]
    active = fastunpack.resolve_tier()
    num = index.collection.num_sequences
    prepared = []
    for unique_ids, query_counts, _groups in stats:
        ids = unique_ids.tolist()
        prepared.append(
            (ids, [index.lookup_entry(i) for i in ids], query_counts)
        )

    def coarse_block() -> float:
        started = time.perf_counter()
        for ids, entries, query_counts in prepared:
            lens, docs, counts = index.docs_counts_flat_from_entries(
                ids, entries
            )
            caps = np.repeat(query_counts, lens)
            np.bincount(
                docs, weights=np.minimum(counts, caps), minlength=num
            )
        return time.perf_counter() - started

    def scores_for(tier: str) -> list:
        with fastunpack.forced_tier(tier):
            return [
                scorer.score(index, *stat)
                for stat in stats
                for scorer in scorer_objects
            ]

    mismatches = sum(
        not np.array_equal(floor_scores, tier_scores)
        for floor_scores, tier_scores in zip(
            scores_for("python"), scores_for(active)
        )
    )

    floor_ms = math.inf
    active_ms = math.inf
    for _ in range(max(1, rounds)):
        with fastunpack.forced_tier("python"):
            floor_ms = min(floor_ms, coarse_block() * 1000.0)
        with fastunpack.forced_tier(active):
            active_ms = min(active_ms, coarse_block() * 1000.0)

    document = BenchDocument(
        "kernel",
        meta=standard_meta(
            {
                "active_tier": active,
                "num_sequences": num_sequences,
                "queries": len(cases),
                "timed_scorer": type(timed_scorer).__name__,
                "identity_scorers": list(scorers),
                "rounds": max(1, rounds),
            }
        ),
    )
    document.add("kernel.coarse_python_ms", floor_ms, "ms", "info")
    document.add("kernel.coarse_active_ms", active_ms, "ms", "info")
    document.add(
        "kernel.speedup",
        floor_ms / active_ms if active_ms > 0 else 1.0,
        "x",
        "higher",
    )
    document.add(
        "kernel.rank_identical",
        0.0 if mismatches else 1.0,
        "",
        "higher",
    )
    return document


def run_lsm_bench(
    num_sequences: int = 240,
    num_queries: int = 6,
    delta_batches: int = 3,
    delete_every: int = 7,
    seed: int = 5,
    coarse_cutoff: int = 50,
    top_k: int = 10,
) -> BenchDocument:
    """The live-ingest suite: ingest, delta-phase search, compaction.

    Builds a base database from the front of a synthetic collection,
    ingests the remainder as ``delta_batches`` delta shards, tombstones
    every ``delete_every``-th logical record, and times (a) search over
    base + deltas + tombstones, (b) compaction, and (c) search over the
    compacted result.  Timings are recorded as ``info`` — what the
    regression gate holds is ``lsm.parity``, which is 1.0 only when the
    live database and its compacted form return hit-for-hit identical
    reports to a fresh single-shard rebuild of the same logical
    collection for every query.  A fast delta path that moves one hit
    is a broken delta path.
    """
    import tempfile

    from repro.database import Database
    from repro.sequences.mutate import MutationModel
    from repro.workloads.queries import make_family_queries
    from repro.workloads.synthetic import WorkloadSpec, generate_collection

    family_size = 4
    families = max(2, num_sequences // (family_size * 4))
    background = max(0, num_sequences - families * family_size)
    spec = WorkloadSpec(
        num_families=families,
        family_size=family_size,
        num_background=background,
        mean_length=300,
        mutation=MutationModel(0.1, 0.02, 0.02),
        seed=seed,
    )
    collection = generate_collection(spec)
    records = list(collection.sequences)
    cases = make_family_queries(
        collection, num_queries, 120, seed=seed + 1
    )
    queries = [case.query for case in cases]
    engine_kwargs = dict(coarse_cutoff=coarse_cutoff)

    base_count = max(1, (len(records) * 7) // 10)
    base_records = records[:base_count]
    pending = records[base_count:]
    batches = [
        pending[index::delta_batches] for index in range(delta_batches)
    ]
    batches = [batch for batch in batches if batch]

    def search_ms(database: Database) -> tuple[float, list]:
        reports = []
        started = time.perf_counter()
        for query in queries:
            reports.append(
                database.search(query, top_k=top_k, **engine_kwargs)
            )
        elapsed = time.perf_counter() - started
        return elapsed * 1000.0 / max(1, len(queries)), reports

    def keys(reports) -> list:
        return [
            [
                (hit.ordinal, hit.identifier, hit.score, hit.strand)
                for hit in report.hits
            ]
            for report in reports
        ]

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        live = Database.create(
            base_records, root / "live", shards=2, workers=1
        )
        ingest_started = time.perf_counter()
        for batch in batches:
            live.add_records(batch)
        ingest_ms = (time.perf_counter() - ingest_started) * 1000.0
        doomed = list(range(0, len(live), max(2, delete_every)))
        if doomed:
            live.delete(doomed)

        survivors = [
            live.record(ordinal) for ordinal in range(len(live))
        ]
        oracle = Database.create(survivors, root / "oracle", shards=1)
        _oracle_ms, oracle_reports = search_ms(oracle)
        oracle_keys = keys(oracle_reports)
        oracle.close()

        delta_ms, delta_reports = search_ms(live)
        delta_parity = keys(delta_reports) == oracle_keys

        compact_started = time.perf_counter()
        generation = live.compact()
        compact_ms = (time.perf_counter() - compact_started) * 1000.0
        compacted_ms, compacted_reports = search_ms(live)
        compacted_parity = keys(compacted_reports) == oracle_keys
        live_sequences = len(live)
        live.close()

    document = BenchDocument(
        "lsm",
        meta=standard_meta(
            {
                "num_sequences": len(records),
                "base_records": len(base_records),
                "delta_batches": len(batches),
                "tombstones": len(doomed),
                "queries": len(queries),
                "coarse_cutoff": coarse_cutoff,
                "seed": seed,
                "generation": generation,
            }
        ),
    )
    document.add("lsm.ingest_ms", ingest_ms, "ms", "info")
    document.add("lsm.delta_search_ms", delta_ms, "ms", "info")
    document.add("lsm.compact_ms", compact_ms, "ms", "info")
    document.add("lsm.compacted_search_ms", compacted_ms, "ms", "info")
    document.add(
        "lsm.parity",
        1.0 if (delta_parity and compacted_parity) else 0.0,
        "",
        "higher",
    )
    document.add("lsm.live_sequences", live_sequences, "", "info")
    document.add("lsm.tombstones", len(doomed), "", "info")
    return document


def run_backends_bench(
    num_queries: int = 6,
    seed: int = 9,
    coarse_cutoff: int = 200,
    top_k: int = 4,
    signature_params: dict | None = None,
) -> BenchDocument:
    """The coarse-backend suite: inverted vs signature, two corpora.

    Builds each corpus twice — once per backend — and measures what the
    trade-off actually is: coarse artifact size and build time, query
    latency, and recall of the first ``top_k`` answers against an
    exhaustive-alignment oracle.  Two corpora are used because the
    backends diverge on them: ``e3`` is the standard family workload
    (the paper's E3 shape) and ``repetitive`` is a near-duplicate-heavy
    collection where bit-sliced signatures amortise best.

    What the regression gate holds: per-backend ``recall`` (inverted
    must stay at 1.0, signature above its floor) and each corpus's
    ``signature_smaller`` flag (1.0 only while the signature artifact
    is smaller than the inverted index it replaces).  Sizes are also
    recorded as a raw ``size_ratio`` and timings as ``info``.
    """
    import tempfile

    from repro.database import Database
    from repro.eval.metrics import oracle_recall_at
    from repro.index.store import MemorySequenceSource
    from repro.search.exhaustive import ExhaustiveSearcher
    from repro.sequences.mutate import MutationModel
    from repro.workloads.queries import make_family_queries
    from repro.workloads.synthetic import WorkloadSpec, generate_collection

    corpora = {
        "e3": WorkloadSpec(
            num_families=8,
            family_size=4,
            num_background=80,
            mean_length=300,
            mutation=MutationModel(0.1, 0.02, 0.02),
            seed=seed,
        ),
        "repetitive": WorkloadSpec(
            num_families=10,
            family_size=10,
            num_background=12,
            mean_length=300,
            mutation=MutationModel(0.02, 0.005, 0.005),
            seed=seed + 1,
        ),
    }

    document = BenchDocument(
        "backends",
        meta=standard_meta(
            {
                "num_queries": num_queries,
                "coarse_cutoff": coarse_cutoff,
                "top_k": top_k,
                "seed": seed,
                "signature_params": dict(signature_params or {}),
            },
            coarse_backend="inverted+signature",
        ),
    )

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for corpus, spec in corpora.items():
            collection = generate_collection(spec)
            records = list(collection.sequences)
            cases = make_family_queries(
                collection, num_queries, 120, seed=seed + 2
            )
            queries = [case.query for case in cases]
            longest = max(len(query) for query in queries)
            oracle = ExhaustiveSearcher(
                MemorySequenceSource(records), max_query_length=longest
            )
            oracle_scores = [
                [hit.score for hit in oracle.search(query, top_k=top_k).hits]
                for query in queries
            ]

            sizes = {}
            for backend in ("inverted", "signature"):
                started = time.perf_counter()
                database = Database.create(
                    records,
                    root / f"{corpus}-{backend}",
                    coarse_backend=backend,
                    coarse_params=(
                        signature_params if backend == "signature" else None
                    ),
                )
                build_seconds = time.perf_counter() - started
                coarse_bytes = int(database.manifest["index_bytes"])
                sizes[backend] = coarse_bytes

                recalls = []
                search_started = time.perf_counter()
                for query, relevant in zip(queries, oracle_scores):
                    report = database.search(
                        query, top_k=top_k, coarse_cutoff=coarse_cutoff
                    )
                    recalls.append(
                        oracle_recall_at(
                            [hit.score for hit in report.hits],
                            relevant,
                            top_k,
                        )
                    )
                search_ms = (
                    (time.perf_counter() - search_started)
                    * 1000.0
                    / max(1, len(queries))
                )
                database.close()

                prefix = f"backends.{corpus}.{backend}"
                document.add(
                    f"{prefix}.recall",
                    statistics.mean(recalls),
                    "",
                    "higher",
                )
                document.add(
                    f"{prefix}.coarse_bytes", coarse_bytes, "bytes", "info"
                )
                document.add(
                    f"{prefix}.build_seconds", build_seconds, "s", "info"
                )
                document.add(f"{prefix}.search_ms", search_ms, "ms", "info")

            ratio = sizes["signature"] / max(1, sizes["inverted"])
            document.add(
                f"backends.{corpus}.size_ratio", ratio, "", "info"
            )
            document.add(
                f"backends.{corpus}.signature_smaller",
                1.0 if sizes["signature"] < sizes["inverted"] else 0.0,
                "",
                "higher",
            )
            document.add(
                f"backends.{corpus}.sequences", len(records), "", "info"
            )
    return document
