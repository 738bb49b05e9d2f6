"""The traced pass over a single-layout database: each layer's public
function is called on its own, inside a span, once per query.

Timing from outside means a layer is measured in isolation (its inputs
are computed first, untimed), not as the slice of ``engine.search`` it
occupies; ``budget_coverage`` says how much of the search's wall time
the isolated leaf layers add up to.  Counts depend only on the inputs
and repeat exactly for a seed.
"""

from __future__ import annotations

from statistics import median

from repro import Database, ScoringScheme
from repro.align.kernel import TargetImage, segment_best_scores
from repro.coarse_backends import get_backend
from repro.coarse_backends.base import artifact_name
from repro.search.coarse import CoarseRanker
from repro.search.fine import FineSearcher
from repro.sharding.manifest import STORE_NAME

from e2e_bench.harness import Built, Run


def database_metrics(run: Run, built: Built) -> dict[str, float]:
    """Set-up and size numbers of the ``workloads`` and ``database``
    layers (any layout)."""
    recorder = run.recorder
    for _ in range(3):
        with recorder.span("database.open"):
            Database.open(built.path).close()
    artifact = artifact_name(run.workload.coarse_backend)
    files = [p for p in built.path.rglob("*") if p.is_file()]
    return {
        "workloads.generate_s": built.generate_s,
        "database.create_s": built.create_s,
        "database.open_ms": recorder.median_ms("database.open"),
        "database.index_bytes": sum(
            p.stat().st_size for p in files if p.name == artifact
        ),
        "database.store_bytes": sum(
            p.stat().st_size for p in files if p.name == STORE_NAME
        ),
    }


def trace_single(run: Run, built: Built, engine) -> dict[str, float]:
    """Per-layer medians per query over the first ``trace_queries``
    cases, for a one-shard database of either coarse backend."""
    recorder = run.recorder
    workload = run.workload
    db = built.db
    index, store = db.index, db.store
    scheme = ScoringScheme()
    inverted = workload.coarse_backend == "inverted"
    if inverted:
        ranker = CoarseRanker(index, "count")
    else:
        ranker = get_backend(workload.coarse_backend).make_ranker(
            index, "count", on_corruption="raise"
        )
    fine = FineSearcher(store, scheme)
    cases = built.cases[: workload.trace_queries]
    run.samples["trace_queries"] = len(cases)

    rows: list[dict[str, float]] = []
    for case in cases:
        codes = case.query.codes
        row: dict[str, float] = {}
        with recorder.span("query", query=case.query.identifier):
            with recorder.span("search.engine.search"):
                report = engine.search(case.query, top_k=workload.top_k)
            row["coarse_ms"] = report.coarse_seconds * 1000.0
            row["fine_ms"] = report.fine_seconds * 1000.0
            row["hits"] = len(report.hits)
            if inverted:
                with recorder.span("index.intervals.extract"):
                    ids, _, _ = ranker.query_intervals(codes)
                ids = ids.tolist()
                with recorder.span("index.storage.lookup"):
                    entries = [index.lookup_entry(i) for i in ids]
                with recorder.span("index.postings.decode"):
                    lens, _, _ = index.docs_counts_flat_from_entries(
                        ids, entries
                    )
                found = [entry for entry in entries if entry is not None]
                row["query_intervals"] = len(ids)
                row["lookup_hits"] = len(found)
                row["postings_decoded"] = int(lens.sum())
                row["bytes_decoded"] = sum(len(e.data) for e in found)
            with recorder.span("search.coarse.rank"):
                candidates = ranker.rank(codes, workload.coarse_cutoff)
            row["candidates"] = len(candidates)
            with recorder.span("index.store.fetch"):
                targets = [store.codes(c.ordinal) for c in candidates]
            row["bases_fetched"] = sum(len(target) for target in targets)
            with recorder.span("align.kernel.image_build"):
                image = TargetImage.build(targets, scheme, len(codes))
                image.profile_for(scheme)
            with recorder.span("align.kernel.sw"):
                segment_best_scores(codes, image, scheme)
            with recorder.span("search.fine.align_candidates"):
                fine.align_candidates(codes, candidates)
        rows.append(row)

    ms = recorder.milliseconds
    search = ms("search.engine.search")
    rank = ms("search.coarse.rank")
    fetch = ms("index.store.fetch")
    image_build = ms("align.kernel.image_build")
    sw = ms("align.kernel.sw")
    align = ms("search.fine.align_candidates")

    def per_query(value) -> float:
        return median(value(i, rows[i]) for i in range(len(rows)))

    def column(name: str) -> float:
        return median(row[name] for row in rows)

    cells = [len(case.query) * row["bases_fetched"]
             for case, row in zip(cases, rows)]
    metrics = {
        "search.engine.search_ms": median(search),
        "search.engine.coarse_ms": column("coarse_ms"),
        "search.engine.fine_ms": column("fine_ms"),
        "database.engine_overhead_ms": per_query(
            lambda i, row: search[i] - row["coarse_ms"] - row["fine_ms"]
        ),
        "search.coarse.candidates": column("candidates"),
        "search.coarse.useful_ratio": per_query(
            lambda i, row: row["hits"] / max(1, row["candidates"])
        ),
        "index.store.fetch_ms": median(fetch),
        "index.store.records_fetched": column("candidates"),
        "index.store.bases_fetched": column("bases_fetched"),
        "align.kernel.image_build_ms": median(image_build),
        "align.kernel.sw_ms": median(sw),
        "align.kernel.dp_cells": median(cells),
        "align.kernel.cells_per_s": per_query(
            lambda i, row: cells[i] / (sw[i] / 1000.0)
        ),
        "search.fine.align_candidates_ms": median(align),
        "search.fine.self_ms": per_query(
            lambda i, row: align[i] - fetch[i] - image_build[i] - sw[i]
        ),
        "search.fine.hits": column("hits"),
        # Leaf layers: everything under rank, everything under
        # align_candidates.  Their isolated times over the search's wall.
        "budget_coverage": per_query(
            lambda i, row: (rank[i] + align[i]) / search[i]
        ),
    }
    if inverted:
        extract = ms("index.intervals.extract")
        lookup = ms("index.storage.lookup")
        decode = ms("index.postings.decode")
        metrics.update({
            "index.intervals.extract_ms": median(extract),
            "index.intervals.query_intervals": column("query_intervals"),
            "index.storage.lookup_ms": median(lookup),
            "index.storage.lookups": column("query_intervals"),
            "index.storage.lookup_hit_ratio": per_query(
                lambda i, row: row["lookup_hits"]
                / max(1, row["query_intervals"])
            ),
            "index.postings.decode_ms": median(decode),
            "index.postings.postings_decoded": column("postings_decoded"),
            "index.postings.bytes_decoded": column("bytes_decoded"),
            "search.coarse.rank_ms": median(rank),
            "search.coarse.accumulate_cut_ms": per_query(
                lambda i, row: rank[i] - extract[i] - lookup[i] - decode[i]
            ),
        })
    else:
        metrics.update({
            "coarse_backends.signature.rank_ms": median(rank),
            "coarse_backends.signature.blocks": index.num_blocks,
            "coarse_backends.signature.artifact_bytes": (
                built.path / artifact_name(workload.coarse_backend)
            ).stat().st_size,
        })
    return metrics
