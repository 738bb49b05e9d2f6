"""``live_mixed``: one scripted client reading beside writes on a 4-shard
database.

Eight rounds of [searches, ``add_records(40)``, searches, ``delete(10)``],
``compact()`` after rounds 4 and 8.  The writes are a fixed script; the
sixteen search segments share the measuring time equally, so a faster
engine completes more searches.

``query_qps`` here is the searches per second of the mix the script
stands for — ``SEARCHES_PER_ROUND`` searches for every ``add_records``
and ``delete``, a compaction every four rounds — with every operation at
its ``quiet_quartile`` time.  The writes are in its denominator, so a query-side
gain bought with slower ingest or compaction lowers it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from statistics import median

import numpy as np

from repro import PartitionedSearchEngine

from e2e_bench import layers
from e2e_bench.checks import report_hits, report_problem
from e2e_bench.harness import (
    Built,
    Cycle,
    Run,
    closed_loop,
    directory_bytes,
    end_to_end,
    latency_metrics,
    quiet_quartile,
    set_up,
    tear_down,
)
from e2e_bench.inputs import exact_case, make_ingest_batches

ROUNDS = 8
COMPACT_AFTER = (4, 8)
INGEST_BATCH = 40
DELETE_BATCH = 10
#: Searches a round stands for in ``query_qps`` (the time-boxed segments
#: run fewer; their typical time is what enters).
SEARCHES_PER_ROUND = 60
#: Of each batch of writes, how many records become query sources.
PROBES = 4
#: Share of ``--seconds`` the search segments get; the fixed writes
#: (two compactions at ~1.7 s dominate) take roughly the rest.
SEARCH_SHARE = 0.6


def run_live(run: Run) -> dict[str, float]:
    built, _, setup_s = set_up(run)
    try:
        script = Script(run, built)
        script.play()
        if run.traced:
            return script.layer_metrics()
        return end_to_end(
            run, built, setup_s, script.latencies,
            script.mix_searches_per_second(),
        )
    finally:
        tear_down(built)


class Script:
    """The scripted client, and the model of the database it checks
    answers against: the live identifiers in logical-ordinal order."""

    def __init__(self, run: Run, built: Built) -> None:
        self.run = run
        self.built = built
        self.db = built.db
        self.rng = np.random.default_rng(run.seed + 5)
        self.live = [r.identifier for r in built.collection.sequences]
        self.records = {r.identifier: r for r in built.collection.sequences}
        self.batches = make_ingest_batches(
            run.shape["mean_length"], ROUNDS, INGEST_BATCH, run.seed
        )
        self.cycle = Cycle(list(built.cases))
        self.probes = 0
        self.latencies: list[float] = []
        self.by_deltas: dict[int, list[float]] = {}
        self.write_seconds: dict[str, list[float]] = {}
        self.segment_seconds = run.seconds * SEARCH_SHARE / (2 * ROUNDS)
        # Traced-run measurements.
        self.written = 0
        self.ingested_bases = 0
        self.deltas_peak = 0
        self.tombstones_peak = 0
        self.shard_rows: list[dict[str, float]] = []
        self.untraced_ms = 0.0

    # -- the script ------------------------------------------------------

    def play(self) -> None:
        run = self.run
        closed_loop(
            run, self._engine(), self.cycle, run.warmup_seconds,
            len(self.cycle.cases),
        )
        for number in range(1, ROUNDS + 1):
            self._searches()
            self._ingest(self.batches[number - 1])
            self._searches()
            self._delete()
            if number in COMPACT_AFTER:
                if run.traced and number == COMPACT_AFTER[0]:
                    self._shard_breakdown()
                self._compact()

    def mix_searches_per_second(self) -> float:
        searches = ROUNDS * SEARCHES_PER_ROUND
        search_seconds = latency_metrics(self.latencies)["query_p50_ms"] / 1e3
        script_seconds = searches * search_seconds + sum(
            len(seconds) * quiet_quartile(seconds)
            for seconds in self.write_seconds.values()
        )
        return searches / script_seconds

    def _engine(self):
        return self.db.engine(coarse_cutoff=self.run.workload.coarse_cutoff)

    def _searches(self) -> None:
        if self.run.traced:
            # A fixed count, so the traced run's counts repeat.
            latencies = closed_loop(
                self.run, self._engine(), self.cycle,
                searches=max(2, self.run.workload.trace_queries // 5),
            )
        else:
            latencies = closed_loop(
                self.run, self._engine(), self.cycle, self.segment_seconds
            )
        self.latencies += latencies
        self.by_deltas.setdefault(self.db.delta_shards, []).extend(latencies)

    def _probe(self, identifiers: list[str]) -> None:
        """Turn some just-written records into queries: one cut from an
        ingested record must find it, one from a deleted record must
        not."""
        for identifier in identifiers[:PROBES]:
            self.cycle.cases.append(
                exact_case(self.records[identifier], self.rng, self.probes)
            )
            self.probes += 1

    def _write(self, name: str, operation) -> None:
        """Time one write and count it as an operation."""
        traced = self.run.traced
        before = directory_bytes(self.built.path) if traced else 0
        started = time.perf_counter()
        with self.run.recorder.span(name) if traced else nullcontext():
            operation()
        self.write_seconds.setdefault(name, []).append(
            time.perf_counter() - started
        )
        if traced:
            after = directory_bytes(self.built.path)
            # A compaction rewrites every byte it leaves behind.
            self.written += after if name.endswith("compact") else (
                after - before
            )
        self.deltas_peak = max(self.deltas_peak, self.db.delta_shards)
        self.tombstones_peak = max(
            self.tombstones_peak, self.db.tombstone_count
        )
        self.run.checker.operation(
            len(self.db) == len(self.live),
            f"{name}: database holds {len(self.db)} live records, "
            f"expected {len(self.live)}",
        )

    def _ingest(self, batch: list) -> None:
        self.live += [record.identifier for record in batch]
        self.records.update((record.identifier, record) for record in batch)
        self.ingested_bases += sum(len(record) for record in batch)
        self._write("lsm.mutate.add_records",
                    lambda: self.db.add_records(batch))
        self._probe([record.identifier for record in batch])

    def _delete(self) -> None:
        # Family members stay, so family recall keeps its denominator.
        deletable = [
            ordinal for ordinal, identifier in enumerate(self.live)
            if not identifier.startswith("fam")
        ]
        ordinals = sorted(
            int(o) for o in self.rng.choice(
                deletable, size=DELETE_BATCH, replace=False
            )
        )
        doomed = [self.live[ordinal] for ordinal in ordinals]
        self.run.checker.operation(
            [self.db.record(o).identifier for o in ordinals] == doomed,
            "logical ordinals no longer name the expected records",
        )
        gone = set(doomed)
        self.live = [i for i in self.live if i not in gone]
        self._write("lsm.mutate.delete", lambda: self.db.delete(ordinals))
        self.run.checker.deleted.update(doomed)
        self._probe(doomed)

    def _compact(self) -> None:
        self._write("lsm.mutate.compact", self.db.compact)

    # -- the traced pass -------------------------------------------------

    def _shard_breakdown(self) -> None:
        """Time each shard's own coarse and fine work for a query, by the
        same steps the sharded engine takes (per-shard rank with the
        cutoff widened by the shard's tombstones, dead candidates
        dropped, global merge and cut, per-shard alignment), next to the
        engine's own search.  Runs with four deltas and forty
        tombstones, just before the first compaction."""
        run, db, recorder = self.run, self.db, self.run.recorder
        cutoff, top_k = run.workload.coarse_cutoff, run.workload.top_k
        engine = self._engine()
        shards = db.shards
        dead = set(db.live.tombstones)
        engines = [
            PartitionedSearchEngine(
                shard.index, shard.store, coarse_cutoff=cutoff
            )
            for shard in shards
        ]
        widened = [
            cutoff + sum(
                1 for o in dead if s.base <= o < s.base + len(s.store)
            )
            for s in shards
        ]
        cases = self.cycle.cases[: run.workload.trace_queries]
        run.samples["trace_queries"] = len(cases)
        untraced = closed_loop(
            run, engine, Cycle(cases), searches=len(cases)
        )
        self.untraced_ms = median(untraced) * 1e3
        for case in cases:
            codes = case.query.codes
            coarse_ms = [0.0] * len(shards)
            fine_ms = [0.0] * len(shards)
            with recorder.span("query", query=case.query.identifier):
                with recorder.span("sharding.engine.search"):
                    report = engine.search(case.query, top_k=top_k)
                rows = []
                for slot, shard in enumerate(shards):
                    with recorder.span("sharding.engine.shard_coarse") as t:
                        ranked = engines[slot].coarse_rank(
                            codes, cutoff=widened[slot]
                        )
                    coarse_ms[slot] = t.ms
                    alive = [
                        c for c in ranked if shard.base + c.ordinal not in dead
                    ][:cutoff]
                    rows += [
                        (-c.coarse_score, shard.base + c.ordinal, slot, c)
                        for c in alive
                    ]
                rows.sort(key=lambda row: row[:2])
                hits = []
                for slot, shard in enumerate(shards):
                    mine = [row[3] for row in rows[:cutoff] if row[2] == slot]
                    if not mine:
                        continue
                    with recorder.span("sharding.engine.shard_fine") as t:
                        found = engines[slot].fine_align(codes, mine)
                    fine_ms[slot] = t.ms
                    hits += [
                        (-h.score, -h.coarse_score, shard.base + h.ordinal,
                         h.identifier)
                        for h in found
                    ]
            hits.sort()
            run.checker.operation(
                [(h[3], -h[0]) for h in hits[:top_k]] == report_hits(report)
                and report_problem(report) is None,
                f"{case.query.identifier}: shard-by-shard evaluation "
                "disagrees with the sharded engine",
            )
            work = sum(coarse_ms) + sum(fine_ms)
            self.shard_rows.append({
                "coarse": sum(coarse_ms),
                "fine": sum(fine_ms),
                # Shards run one after another today; the slowest one's
                # share is what a parallel fan-out could not hide.
                "slowest": max(
                    c + f for c, f in zip(coarse_ms, fine_ms)
                ) / work,
                "engine_coarse": report.coarse_seconds * 1e3,
                "engine_fine": report.fine_seconds * 1e3,
            })

    def layer_metrics(self) -> dict[str, float]:
        recorder = self.run.recorder
        rows = self.shard_rows
        search = recorder.milliseconds("sharding.engine.search")

        def per_query(value) -> float:
            return median(value(i, rows[i]) for i in range(len(rows)))

        metrics = layers.database_metrics(self.run, self.built)
        metrics.update({
            "sharding.engine.search_ms": median(search),
            "sharding.engine.shard_coarse_ms": per_query(
                lambda i, row: row["coarse"]
            ),
            "sharding.engine.shard_fine_ms": per_query(
                lambda i, row: row["fine"]
            ),
            "sharding.engine.fanout_merge_ms": per_query(
                lambda i, row: search[i] - row["coarse"] - row["fine"]
            ),
            "sharding.engine.slowest_shard_share": per_query(
                lambda i, row: row["slowest"]
            ),
            "search.engine.search_ms": median(search),
            "search.engine.coarse_ms": per_query(
                lambda i, row: row["engine_coarse"]
            ),
            "search.engine.fine_ms": per_query(
                lambda i, row: row["engine_fine"]
            ),
            "database.engine_overhead_ms": per_query(
                lambda i, row: search[i] - row["engine_coarse"]
                - row["engine_fine"]
            ),
            "budget_coverage": per_query(
                lambda i, row: (row["coarse"] + row["fine"]) / search[i]
            ),
            "trace.search_ms_ratio": median(search) / self.untraced_ms,
            "lsm.mutate.add_records_ms": recorder.median_ms(
                "lsm.mutate.add_records"
            ),
            "lsm.mutate.delete_ms": recorder.median_ms("lsm.mutate.delete"),
            "lsm.mutate.compact_s": recorder.median_ms("lsm.mutate.compact")
            / 1e3,
            "lsm.mutate.bytes_written_per_user_byte": self.written
            / self.ingested_bases,
            "lsm.mutate.delta_shards_peak": self.deltas_peak,
            "lsm.mutate.tombstones_peak": self.tombstones_peak,
        })
        for deltas in (0, 2, 4):
            metrics[f"lsm.mutate.query_ms_at_{deltas}_deltas"] = (
                median(self.by_deltas[deltas]) * 1e3
            )
        return metrics
