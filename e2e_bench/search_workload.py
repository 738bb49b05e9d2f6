"""``align_heavy``, ``coarse_heavy`` and ``coarse_heavy_sig``: one
in-process client searching a one-shard database in a closed loop."""

from __future__ import annotations

from statistics import median

from e2e_bench import layers
from e2e_bench.harness import (
    Built,
    Cycle,
    Run,
    closed_loop,
    end_to_end,
    searches_per_second,
    set_up,
    tear_down,
)


def run_search(run: Run) -> dict[str, float]:
    built, _, setup_s = set_up(run)
    try:
        engine = built.db.engine(coarse_cutoff=run.workload.coarse_cutoff)
        cycle = Cycle(built.cases)
        closed_loop(run, engine, cycle, run.warmup_seconds, len(built.cases))
        if run.traced:
            return traced_single(run, built, engine)
        latencies = closed_loop(run, engine, cycle, run.seconds)
        return end_to_end(
            run, built, setup_s, latencies, searches_per_second(latencies)
        )
    finally:
        tear_down(built)


def traced_single(run: Run, built: Built, engine) -> dict[str, float]:
    """The per-layer pass, after an untraced pass over the same queries
    whose median shows what the spans themselves cost."""
    cases = built.cases[: run.workload.trace_queries]
    untraced = closed_loop(run, engine, Cycle(cases), searches=len(cases))
    metrics = layers.database_metrics(run, built)
    metrics.update(layers.trace_single(run, built, engine))
    metrics["trace.search_ms_ratio"] = metrics["search.engine.search_ms"] / (
        median(untraced) * 1000.0
    )
    return metrics
