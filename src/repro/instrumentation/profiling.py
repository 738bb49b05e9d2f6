"""Workload profiling: run queries, snapshot the instrumentation.

:func:`profile_search` drives any engine exposing
``search(query, top_k)`` over a query list with instrumentation
enabled, then condenses the registry into a :class:`ProfileSnapshot` —
per-phase latency percentiles, quarantine counts, throughput — that
serialises to the ``BENCH_profile.json``
format consumed by the perf-trajectory tooling and CI artifacts.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.instrumentation.instruments import Instruments

#: Format marker so future snapshot layouts stay distinguishable.
SCHEMA = "repro.profile/v1"

#: Default snapshot file name (the perf trajectory scans BENCH_*.json).
DEFAULT_PROFILE_NAME = "BENCH_profile.json"


@dataclass(frozen=True)
class ProfileSnapshot:
    """One profiled workload, JSON-ready.

    Attributes:
        meta: free-form workload description (collection size, cutoff,
            engine name, ...).
        queries: query evaluations performed (repeats included).
        wall_seconds: wall clock of the whole run.
        throughput_qps: queries per wall-clock second.
        phases: per-histogram latency summaries in milliseconds, keyed
            by metric name (e.g. ``partitioned.coarse_seconds``).
        quarantine: quarantined ``intervals`` and ``sequences`` counts.
        counters / gauges: the full registry contents.
    """

    meta: dict = field(default_factory=dict)
    queries: int = 0
    wall_seconds: float = 0.0
    throughput_qps: float = 0.0
    phases: dict = field(default_factory=dict)
    quarantine: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    schema: str = SCHEMA

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileSnapshot":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items() if key in known})

    @classmethod
    def from_json(cls, text: str) -> "ProfileSnapshot":
        return cls.from_dict(json.loads(text))

    def write(self, path: str | Path) -> Path:
        """Serialise to ``path`` (returned for convenience)."""
        target = Path(path)
        target.write_text(self.to_json() + "\n")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "ProfileSnapshot":
        return cls.from_json(Path(path).read_text())

    def describe(self) -> str:
        """A short human-readable summary (for CLI output)."""
        lines = [
            f"queries           : {self.queries}",
            f"wall seconds      : {self.wall_seconds:.3f}",
            f"throughput        : {self.throughput_qps:.1f} q/s",
        ]
        for name, phase in sorted(self.phases.items()):
            lines.append(
                f"{name:<18}: p50={phase['p50_ms']:.2f}ms "
                f"p90={phase['p90_ms']:.2f}ms p99={phase['p99_ms']:.2f}ms "
                f"(n={phase['count']})"
            )
        lines.append(
            f"quarantine        : {self.quarantine.get('intervals', 0)} "
            f"interval(s), {self.quarantine.get('sequences', 0)} sequence(s)"
        )
        return "\n".join(lines)


def _phase_summaries(snapshot: dict) -> dict:
    """Millisecond latency summaries of every *_seconds histogram."""
    phases: dict[str, dict] = {}
    for name, summary in snapshot.get("histograms", {}).items():
        if not name.endswith("_seconds"):
            continue
        phases[name] = {
            "count": summary["count"],
            "total_s": summary["total"],
            "mean_ms": summary["mean"] * 1000.0,
            "p50_ms": summary["p50"] * 1000.0,
            "p90_ms": summary["p90"] * 1000.0,
            "p99_ms": summary["p99"] * 1000.0,
        }
    return phases


def snapshot_from_instruments(
    instruments: Instruments,
    queries: int,
    wall_seconds: float,
    meta: dict | None = None,
) -> ProfileSnapshot:
    """Condense a registry into a :class:`ProfileSnapshot`."""
    registry = instruments.metrics.snapshot()
    counters = registry.get("counters", {})
    return ProfileSnapshot(
        meta=dict(meta or {}),
        queries=queries,
        wall_seconds=wall_seconds,
        throughput_qps=queries / wall_seconds if wall_seconds > 0 else 0.0,
        phases=_phase_summaries(registry),
        quarantine={
            "intervals": counters.get("index.quarantined_intervals", 0),
            "sequences": counters.get("store.quarantined_sequences", 0),
        },
        counters=dict(counters),
        gauges=dict(registry.get("gauges", {})),
    )


def profile_search(
    engine,
    queries,
    top_k: int = 10,
    repeat: int = 1,
    meta: dict | None = None,
) -> ProfileSnapshot:
    """Run a query workload and snapshot what the engine measured.

    The engine must expose ``search(query, top_k=...)`` and
    ``set_instruments`` (all repro engines do).  If the engine is not
    already instrumented, a fresh :class:`Instruments` is attached for
    the run.

    Args:
        engine: the search engine to drive.
        queries: the query records (anything ``engine.search`` takes).
        top_k: answers requested per query.
        repeat: whole-workload repetitions.
        meta: extra workload description recorded in the snapshot.
    """
    instruments = getattr(engine, "instruments", None)
    if instruments is None or not instruments.enabled:
        instruments = Instruments()
        engine.set_instruments(instruments)
    queries = list(queries)
    started = time.perf_counter()
    for _ in range(max(1, repeat)):
        for query in queries:
            engine.search(query, top_k=top_k)
    wall_seconds = time.perf_counter() - started
    merged_meta = {
        "engine": type(engine).__name__,
        "top_k": top_k,
        "repeat": max(1, repeat),
        "distinct_queries": len(queries),
        "coarse_backend": getattr(engine, "coarse_backend", "inverted"),
    }
    merged_meta.update(meta or {})
    return snapshot_from_instruments(
        instruments,
        queries=len(queries) * max(1, repeat),
        wall_seconds=wall_seconds,
        meta=merged_meta,
    )
