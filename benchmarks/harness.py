"""Table harness: regenerates every experiment's rows (E1-E8).

Run all experiments (five to ten minutes)::

    python -m benchmarks.harness

or a subset::

    python -m benchmarks.harness E1 E4

Each function returns a :class:`Table`; the printed output is what
EXPERIMENTS.md records as "measured".
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from benchmarks import workload_setup as setup
from repro.compression import (
    EliasDeltaCodec,
    EliasGammaCodec,
    GolombCodec,
    RiceCodec,
    VByteCodec,
    optimal_golomb_parameter,
)
from repro.compression.direct import measure as measure_direct
from repro.eval.ground_truth import compute_ground_truth
from repro.eval.metrics import (
    average_precision,
    ranking_overlap,
    recall_at,
)
from repro.index.statistics import collect_statistics
from repro.index.stopping import stop_most_frequent
from repro.search.blast_like import BlastLikeSearcher
from repro.search.engine import PartitionedSearchEngine
from repro.search.fasta_like import FastaLikeSearcher


@dataclass(frozen=True)
class Table:
    """One experiment's regenerated table."""

    experiment: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    note: str = ""

    def render_markdown(self) -> str:
        """The table as GitHub-flavoured markdown."""
        lines = [f"### {self.experiment}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
        if self.note:
            lines.append("")
            lines.append(f"*{self.note}*")
        return "\n".join(lines)

    def render(self) -> str:
        widths = [
            max(len(str(column)), *(len(_cell(row[i])) for row in self.rows))
            if self.rows
            else len(str(column))
            for i, column in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append(
            "  ".join(str(c).rjust(w) for c, w in zip(self.columns, widths))
        )
        for row in self.rows:
            lines.append(
                "  ".join(_cell(v).rjust(w) for v, w in zip(row, widths))
            )
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _mean_query_seconds(engine, cases, repeat: int = 1) -> float:
    started = time.perf_counter()
    for _ in range(repeat):
        for case in cases:
            engine.search(case.query, top_k=10)
    return (time.perf_counter() - started) / (repeat * len(cases))


def _mean_recall(engine, cases, cutoff: int = 10) -> float:
    return float(
        np.mean(
            [
                recall_at(
                    engine.search(case.query, top_k=cutoff).ordinals(),
                    case.relevant,
                    cutoff,
                )
                for case in cases
            ]
        )
    )


def experiment_e1() -> Table:
    """Index size vs. interval length (and A1: overlap vs. skip)."""
    rows = []
    total_bases = setup.base_collection().total_bases
    configurations = [(k, 1) for k in (4, 6, 8, 10, 12)] + [(8, 8)]
    for interval_length, stride in configurations:
        index = setup.base_index(interval_length=interval_length, stride=stride)
        stats = collect_statistics(index)
        mode = "overlap" if stride == 1 else "non-overlap"
        rows.append(
            (
                interval_length,
                mode,
                stats.vocabulary_size,
                stats.pointer_count,
                stats.compressed_bytes,
                stats.bits_per_pointer,
                stats.compressed_bytes / total_bases,
                stats.compression_ratio,
            )
        )
    return Table(
        "E1",
        "index size vs interval length",
        ("k", "mode", "vocab", "pointers", "bytes", "bits/ptr",
         "bytes/base", "vs-flat"),
        tuple(rows),
        note=f"collection: {total_bases} bases; flat record = 8B/pointer + "
        "4B/offset",
    )


def experiment_e2() -> Table:
    """Integer-coding comparison on the index's document gaps (and A2)."""
    gaps = setup.document_gap_stream(setup.base_index())
    universe = setup.base_collection().spec.num_sequences
    global_b = optimal_golomb_parameter(
        max(1, round(len(gaps) / setup.base_index().vocabulary_size)), universe
    )
    codecs = [
        ("gamma", EliasGammaCodec()),
        ("delta", EliasDeltaCodec()),
        (f"golomb(b={global_b})", GolombCodec(global_b)),
        ("rice", RiceCodec.for_density(
            max(1, round(len(gaps) / setup.base_index().vocabulary_size)),
            universe,
        )),
        ("vbyte", VByteCodec()),
    ]
    rows = []
    for name, codec in codecs:
        started = time.perf_counter()
        data = codec.encode_array(gaps)
        encode_seconds = time.perf_counter() - started
        started = time.perf_counter()
        decoded = codec.decode_array(data, len(gaps))
        decode_seconds = time.perf_counter() - started
        assert decoded == gaps
        rows.append(
            (
                name,
                8.0 * len(data) / len(gaps),
                len(gaps) / encode_seconds / 1e6,
                len(gaps) / decode_seconds / 1e6,
            )
        )
    # A2: per-list derived Golomb parameters (what the index really does)
    # against the single global parameter above.
    index = setup.base_index()
    per_list_bits = 0
    for interval in index.interval_ids():
        (df,), docs, _ = index.read_lists([interval])
        codec = GolombCodec(optimal_golomb_parameter(int(df), universe))
        previous = -1
        for doc in docs.tolist():
            per_list_bits += codec.code_length(doc - previous - 1)
            previous = doc
    rows.append(("golomb(per-list b)", per_list_bits / len(gaps), 0.0, 0.0))
    return Table(
        "E2",
        "integer codes on document gaps",
        ("codec", "bits/gap", "enc Mgaps/s", "dec Mgaps/s"),
        tuple(rows),
        note=f"{len(gaps)} gaps over a {universe}-sequence universe; "
        "per-list row reports size only",
    )


def experiment_e3() -> Table:
    """Query time vs collection size: partitioned vs exhaustive."""
    rows = []
    for num_sequences in (150, 300, 600, 1200):
        records, engine, exhaustive, queries = setup.scaled_setup(num_sequences)
        bases = sum(len(record) for record in records)
        partitioned_seconds = _mean_query_seconds(engine, queries)
        exhaustive_seconds = _mean_query_seconds(exhaustive, queries)
        rows.append(
            (
                num_sequences,
                bases,
                partitioned_seconds * 1000,
                exhaustive_seconds * 1000,
                exhaustive_seconds / partitioned_seconds,
            )
        )
    return Table(
        "E3",
        "query time vs collection size (cutoff=50)",
        ("seqs", "bases", "part ms/q", "exh ms/q", "speedup"),
        tuple(rows),
        note="exhaustive cost grows linearly with the collection; "
        "partitioned cost tracks the (fixed) candidate volume",
    )


def experiment_e4() -> Table:
    """Speedup over exhaustive search on the base collection."""
    cases = setup.base_queries()
    engines = [
        ("partitioned c=50", setup.base_engine(50)),
        ("partitioned c=100", setup.base_engine(100)),
        ("part. frames c=50", setup.frames_engine(50)),
        ("part. frames c=100", setup.frames_engine(100)),
        ("exhaustive SW", setup.base_exhaustive()),
        ("fasta-like", FastaLikeSearcher(list(setup.base_records()))),
        ("blast-like", BlastLikeSearcher(list(setup.base_records()))),
    ]
    measured = []
    for name, engine in engines:
        seconds = _mean_query_seconds(engine, cases)
        recall = _mean_recall(engine, cases)
        measured.append((name, seconds, recall))
    exhaustive_seconds = next(
        seconds for name, seconds, _ in measured if name == "exhaustive SW"
    )
    rows = tuple(
        (name, seconds * 1000, recall, exhaustive_seconds / seconds)
        for name, seconds, recall in measured
    )
    return Table(
        "E4",
        "engines on the base collection",
        ("engine", "ms/query", "recall@10", "speedup"),
        rows,
        note="recall against planted family truth; speedup vs exhaustive SW",
    )


def experiment_e5() -> Table:
    """Accuracy vs candidates examined (and A3: scorer variants)."""
    cases = setup.base_queries()
    oracle = compute_ground_truth(
        setup.base_exhaustive(), [case.query for case in cases]
    )
    rows = []
    collection_size = len(setup.base_records())
    for cutoff in (5, 10, 25, 50, 100, 300, collection_size):
        engine = setup.base_engine(cutoff)
        seconds = _mean_query_seconds(engine, cases)
        recall = _mean_recall(engine, cases)
        overlaps_ten = []
        overlaps_three = []
        for case, truth in zip(cases, oracle.truths):
            ranking = engine.search(case.query, top_k=10).ordinals()
            overlaps_ten.append(ranking_overlap(ranking, truth.top(10), 10))
            overlaps_three.append(ranking_overlap(ranking, truth.top(3), 3))
        rows.append(
            (
                "count",
                cutoff,
                seconds * 1000,
                recall,
                float(np.mean(overlaps_three)),
                float(np.mean(overlaps_ten)),
            )
        )
    for scorer in ("idf",):
        engine = PartitionedSearchEngine(
            setup.base_index(),
            setup.base_source(),
            coarse_scorer=scorer,
            coarse_cutoff=25,
        )
        seconds = _mean_query_seconds(engine, cases)
        recall = _mean_recall(engine, cases)
        overlaps_ten = []
        overlaps_three = []
        for case, truth in zip(cases, oracle.truths):
            ranking = engine.search(case.query, top_k=10).ordinals()
            overlaps_ten.append(ranking_overlap(ranking, truth.top(10), 10))
            overlaps_three.append(ranking_overlap(ranking, truth.top(3), 3))
        rows.append(
            (scorer, 25, seconds * 1000, recall,
             float(np.mean(overlaps_three)), float(np.mean(overlaps_ten)))
        )
    return Table(
        "E5",
        "accuracy vs coarse cutoff",
        ("scorer", "cutoff", "ms/query", "recall@10", "oracle@3", "oracle@10"),
        tuple(rows),
        note="oracle@n: overlap with the exhaustive-SW top n; the top-3 "
        "answers are the strong ones, the top-10 tail is mostly noise "
        "that may share no interval with the query",
    )


def experiment_e6() -> Table:
    """Index stopping: size saved vs effectiveness lost."""
    cases = setup.base_queries()
    base = setup.base_index()
    base_bytes = collect_statistics(base).compressed_bytes
    rows = []
    for fraction in (0.0, 0.01, 0.05, 0.10, 0.20):
        stopped, report = stop_most_frequent(base, fraction)
        engine = PartitionedSearchEngine(
            stopped, setup.base_source(), coarse_cutoff=50
        )
        seconds = _mean_query_seconds(engine, cases)
        recall = _mean_recall(engine, cases)
        stats = collect_statistics(stopped)
        rows.append(
            (
                f"{fraction:.0%}",
                stats.vocabulary_size,
                stats.compressed_bytes,
                1.0 - stats.compressed_bytes / base_bytes,
                seconds * 1000,
                recall,
            )
        )
    return Table(
        "E6",
        "index stopping (drop most frequent intervals)",
        ("stopped", "vocab", "bytes", "saved", "ms/query", "recall@10"),
        tuple(rows),
    )


def experiment_e7() -> Table:
    """Effectiveness vs query divergence, against the exhaustive oracle."""
    def evaluate(engine, cases):
        recalls = []
        precisions = []
        for case in cases:
            ranking = engine.search(case.query, top_k=50).ordinals()
            recalls.append(recall_at(ranking, case.relevant, 10))
            precisions.append(average_precision(ranking, case.relevant))
        return float(np.mean(recalls)), float(np.mean(precisions))

    rows = []
    for percent in (5, 10, 20, 30, 40):
        cases = setup.diverged_queries(percent)
        partitioned_recall, partitioned_ap = evaluate(
            setup.base_engine(50), cases
        )
        exhaustive_recall, exhaustive_ap = evaluate(
            setup.base_exhaustive(), cases
        )
        rows.append(
            (
                f"{percent}%",
                partitioned_recall,
                exhaustive_recall,
                partitioned_ap,
                exhaustive_ap,
            )
        )
    return Table(
        "E7",
        "effectiveness vs query divergence (partitioned vs oracle)",
        ("divergence", "part R@10", "exh R@10", "part AP", "exh AP"),
        tuple(rows),
        note="relevance = planted family membership; cutoff=50",
    )


def experiment_e8() -> Table:
    """Direct sequence coding: space and end-to-end search effect."""
    import os
    import tempfile

    from repro.index.store import read_store, write_store

    records = list(setup.base_records())
    cases = setup.base_queries()
    stats = measure_direct([record.codes for record in records])
    total_bases = sum(len(record) for record in records)
    rows = [
        ("ascii", 8.0, int(total_bases), "-"),
        (
            "direct (cino)",
            stats.bits_per_base,
            int(stats.compressed_bytes),
            "-",
        ),
    ]
    with tempfile.TemporaryDirectory() as workdir:
        for coding in ("raw", "direct"):
            path = os.path.join(workdir, f"{coding}.rpsq")
            write_store(records, path, coding=coding)
            with read_store(path) as store:
                engine = PartitionedSearchEngine(
                    setup.base_index(), store, coarse_cutoff=100
                )
                seconds = _mean_query_seconds(engine, cases, repeat=2)
                rows.append(
                    (
                        f"store:{coding}",
                        8.0 if coding == "raw" else stats.bits_per_base,
                        int(store.payload_bytes),
                        f"{seconds * 1000:.1f}",
                    )
                )
    return Table(
        "E8",
        "direct coding of the sequence store",
        ("representation", "bits/base", "bytes", "query ms (c=100)"),
        tuple(rows),
        note="store-backed rows measure end-to-end partitioned search "
        "fetching candidates from the on-disk store",
    )


def experiment_e7b() -> Table:
    """11-point interpolated recall-precision curves (the paper's
    effectiveness figure) at 10% query divergence."""
    from repro.eval.metrics import eleven_point_interpolated, mean_eleven_point

    cases = setup.diverged_queries(10)
    curves = {}
    for name, engine in (
        ("partitioned", setup.base_engine(50)),
        ("exhaustive", setup.base_exhaustive()),
    ):
        per_query = [
            eleven_point_interpolated(
                engine.search(case.query, top_k=50).ordinals(), case.relevant
            )
            for case in cases
        ]
        curves[name] = mean_eleven_point(per_query)
    rows = tuple(
        (
            f"{level / 10:.1f}",
            curves["partitioned"][level],
            curves["exhaustive"][level],
        )
        for level in range(11)
    )
    return Table(
        "E7B",
        "11-point interpolated recall-precision (10% divergence)",
        ("recall", "partitioned P", "exhaustive P"),
        rows,
        note="mean interpolated precision over the query set; "
        "relevance = planted family membership",
    )


def experiment_profile() -> Table:
    """Instrumented profile of the base workload -> BENCH_profile.json.

    Runs the base partitioned engine with the observability layer
    attached (two passes over the queries) and writes the resulting
    :class:`ProfileSnapshot` next to the other BENCH artifacts, so the perf trajectory and CI both pick it up.
    """
    from repro.instrumentation.profiling import (
        DEFAULT_PROFILE_NAME,
        profile_search,
    )

    cases = setup.base_queries()
    engine = PartitionedSearchEngine(
        setup.base_index(), setup.base_source(), coarse_cutoff=50
    )
    snapshot = profile_search(
        engine,
        [case.query for case in cases],
        top_k=10,
        repeat=2,
        meta={"workload": "base", "cutoff": 50},
    )
    snapshot.write(DEFAULT_PROFILE_NAME)
    rows = [
        ("queries", snapshot.queries),
        ("throughput q/s", snapshot.throughput_qps),
    ]
    for name, phase in sorted(snapshot.phases.items()):
        rows.append((f"{name} p50 ms", phase["p50_ms"]))
        rows.append((f"{name} p99 ms", phase["p99_ms"]))
    return Table(
        "PROFILE",
        "instrumented base workload",
        ("metric", "value"),
        tuple(rows),
        note=f"full snapshot written to {DEFAULT_PROFILE_NAME}",
    )


EXPERIMENTS: dict[str, Callable[[], Table]] = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E7B": experiment_e7b,
    "E8": experiment_e8,
    "PROFILE": experiment_profile,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Print the requested experiment tables (default: all).

    Pass ``--markdown`` to emit GitHub tables (for EXPERIMENTS.md).
    """
    names = list(argv if argv is not None else sys.argv[1:])
    markdown = "--markdown" in names
    names = [name for name in names if name != "--markdown"]
    if not names or names == ["all"]:
        names = list(EXPERIMENTS)
    for name in names:
        experiment = EXPERIMENTS.get(name.upper())
        if experiment is None:
            print(f"unknown experiment {name!r}; known: {list(EXPERIMENTS)}")
            return 1
        started = time.perf_counter()
        table = experiment()
        print(table.render_markdown() if markdown else table.render())
        if not markdown:
            print(f"({time.perf_counter() - started:.1f}s)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
