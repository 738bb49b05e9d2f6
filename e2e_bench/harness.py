"""What every workload shares: the run context, set-up, the closed
timing loop and the small measurements (percentiles, bytes, memory)."""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from repro import Database
from repro.workloads.synthetic import SyntheticCollection

from e2e_bench.checks import Checker, report_hits, report_problem
from e2e_bench.inputs import Case, make_cases, make_corpus
from e2e_bench.recorder import Recorder
from e2e_bench.spec import OUT_DIR, Workload

#: The untimed warm-up (first-touch CRC verification of posting lists and
#: records, page faults on the maps, lazy engine construction) runs every
#: distinct query once, but for no longer than this, nor than a quarter
#: of the measuring time.
WARMUP_SECONDS = 2.5


@dataclass
class Run:
    """One invocation: a workload, a seed, a measuring time, traced or
    not, and what it accumulates on the way."""

    workload: Workload
    shape: dict
    seed: int
    seconds: float
    checker: Checker
    recorder: Recorder | None
    scratch: Path
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    @property
    def warmup_seconds(self) -> float:
        return min(WARMUP_SECONDS, self.seconds / 4)


@dataclass
class Built:
    """A generated corpus with its queries and the database built of it."""

    collection: SyntheticCollection
    cases: list[Case]
    db: Database
    path: Path
    generate_s: float
    create_s: float
    bytes_per_base: float


def make_scratch() -> Path:
    """A directory for this process's databases, inside the checkout."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))


def build(run: Run) -> Built:
    """Generate the inputs from the seed and create the database."""
    workload = run.workload
    started = time.perf_counter()
    collection = make_corpus(run.shape, run.seed)
    cases = make_cases(collection, workload, run.seed)
    generated = time.perf_counter()
    path = Path(tempfile.mkdtemp(prefix="db-", dir=run.scratch)) / "db"
    db = Database.create(
        collection.sequences,
        path,
        shards=workload.shards,
        coarse_backend=workload.coarse_backend,
    )
    created = time.perf_counter()
    return Built(
        collection, cases, db, path, generated - started, created - generated,
        directory_bytes(path) / db.total_bases,
    )


def set_up(
    run: Run, start: Callable[[Built], object] | None = None
) -> tuple[Built, object, float]:
    """Set up ``setup_repeats`` times (once when traced), keeping the
    last; returns it, what ``start`` made of it, and the median seconds.

    ``start`` is the rest of a workload's set-up (``serve_http`` starts
    its server there); what it returns must have ``close()``.
    """
    repeats = 1 if run.traced else run.workload.setup_repeats
    seconds: list[float] = []
    built, extra = None, None
    for _ in range(repeats):
        if built is not None:
            tear_down(built, extra)
        started = time.perf_counter()
        built = build(run)
        extra = start(built) if start is not None else None
        seconds.append(time.perf_counter() - started)
    if not run.traced:
        run.samples["setup_s"] = repeats
    return built, extra, median(seconds)


def tear_down(built: Built, extra: object = None) -> None:
    if extra is not None:
        extra.close()
    built.db.close()
    shutil.rmtree(built.path.parent, ignore_errors=True)


class Cycle:
    """Round-robin over the cases; one cursor across warm-up and timed
    loops so the distinct queries are covered as early as possible."""

    def __init__(self, cases: list[Case]) -> None:
        self.cases = cases
        self._next = 0

    def next(self) -> Case:
        case = self.cases[self._next % len(self.cases)]
        self._next += 1
        return case


def closed_loop(
    run: Run,
    engine,
    cycle: Cycle,
    seconds: float = math.inf,
    searches: float = math.inf,
) -> list[float]:
    """One client issuing searches back to back until ``seconds`` have
    passed or ``searches`` are done; returns per-search seconds.
    Answers are checked between searches, outside each search's own
    timing."""
    top_k = run.workload.top_k
    latencies: list[float] = []
    stop = time.perf_counter() + seconds
    while True:
        case = cycle.next()
        before = time.perf_counter()
        report = engine.search(case.query, top_k=top_k)
        after = time.perf_counter()
        latencies.append(after - before)
        run.checker.search(
            case, report_hits(report), top_k, report_problem(report)
        )
        if after >= stop or len(latencies) >= searches:
            return latencies


def slices(samples: list) -> list[list]:
    """The samples in run order, cut into up to ten equal parts of at
    least twenty."""
    parts = max(1, min(10, len(samples) // 20))
    edges = np.linspace(0, len(samples), parts + 1).astype(int)
    return [samples[a:b] for a, b in zip(edges, edges[1:])]


def quiet_quartile(per_slice: list[float], better: str = "lower") -> float:
    """The value a quarter of the way from the best slice to the worst.

    The cores are shared: other tenants' bursts, from a few hundred
    milliseconds to minutes long, only ever add time.  A percentile
    pooled over the run, or a median over slices, moves with them (3-10 %
    between identical runs); the quieter quartile of per-slice values
    held within 1.5-3 % on the same samples.
    """
    return float(
        np.percentile(per_slice, 25 if better == "lower" else 75)
    )


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """p50 and p95 in milliseconds: each slice's percentile, then the
    ``quiet_quartile`` over slices."""
    parts = slices(latencies)
    return {
        f"query_p{q}_ms": quiet_quartile(
            [float(np.percentile(part, q)) * 1000.0 for part in parts]
        )
        for q in (50, 95)
    }


def searches_per_second(latencies: list[float]) -> float:
    """One client's throughput: each slice's searches per second of
    search time, then the ``quiet_quartile`` over slices."""
    return quiet_quartile(
        [len(part) / sum(part) for part in slices(latencies)], "higher"
    )


def end_to_end(
    run: Run, built: Built, setup_s: float, latencies: list[float], qps: float
) -> dict[str, float]:
    """The metrics of an untraced run, from its timed samples."""
    run.samples["query_ms"] = len(latencies)
    run.samples["queries_scored"] = run.checker.queries_scored
    return {
        "setup_s": setup_s,
        **latency_metrics(latencies),
        "query_qps": qps,
        "recall_at_k": run.checker.recall_at_k,
        "bytes_per_base": built.bytes_per_base,
        "peak_rss_mb": peak_rss_mb(),
    }


def directory_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident memory of a live process, from ``VmHWM``.

    Not ``ru_maxrss``: that survives ``exec``, so a child would report
    at least its parent's size at the fork.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
