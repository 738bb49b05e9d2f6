"""Closed/open-loop load generation against a running search server.

The harness answers the question the single-shot benchmarks cannot:
*what does the service do under concurrent load, possibly with a shard
on fire?*  Two driving modes:

* **closed** — ``clients`` workers each keep exactly one request in
  flight (classic closed loop; throughput is latency-bound);
* **open** — requests are fired on a fixed schedule of ``rate`` per
  second regardless of completions (an arrival process; saturation
  shows up as queueing, shedding, and deadline expiry instead of a
  gentle slowdown).

Every exchange is timed and every response's resilience annotations
(shed / deadline-expired / degraded) are tallied; the result exports as
a ``repro.bench/v1`` document (suite ``serving``) so the regression
gate can watch serving latency like any other benchmark.

:func:`run_serving_benchmark` is the self-contained harness: it builds
a small on-disk sharded collection, optionally zeroes one shard's
posting blob (the ``faults`` harness), boots an in-process server over
a resilient engine over the shards, hammers it, and tears everything down.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from repro.bench.schema import BenchDocument, standard_meta
from repro.errors import SearchError

__all__ = [
    "LOADGEN_MODES",
    "LoadgenResult",
    "run_loadgen",
    "run_serving_benchmark",
]

#: Supported driving modes.
LOADGEN_MODES = ("closed", "open")


@dataclass
class LoadgenResult:
    """Everything one load-generation run measured.

    Attributes:
        mode / clients / duration_seconds: the run configuration
            (duration is the measured wall clock, not the request).
        latencies_ms: per-exchange wall latency, every status counted.
        statuses: HTTP status → count.
        shed / deadline_expired / degraded / partial: resilience
            tallies (shed is 429s; the rest come from 200-response
            annotations).
        transport_errors: exchanges that died below HTTP (reset
            connections, timeouts at the socket).
    """

    mode: str
    clients: int
    duration_seconds: float
    latencies_ms: list[float] = field(default_factory=list)
    statuses: dict[int, int] = field(default_factory=dict)
    shed: int = 0
    deadline_expired: int = 0
    degraded: int = 0
    partial: int = 0
    transport_errors: int = 0

    @property
    def requests(self) -> int:
        """Completed HTTP exchanges (any status)."""
        return len(self.latencies_ms)

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def client_errors(self) -> int:
        """4xx responses other than shed (429)."""
        return sum(
            count
            for status, count in self.statuses.items()
            if 400 <= status < 500 and status != 429
        )

    @property
    def server_errors(self) -> int:
        """5xx responses — zero for a healthy deployment, even with a
        shard fault injected (the resilience acceptance criterion)."""
        return sum(
            count for status, count in self.statuses.items() if status >= 500
        )

    @property
    def throughput_qps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests / self.duration_seconds

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def mean_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.mean(np.asarray(self.latencies_ms)))

    def merge_exchange(
        self, status: int, elapsed_ms: float, payload: dict | None
    ) -> None:
        """Tally one completed exchange (single-threaded use only; the
        workers keep private results and merge after joining)."""
        self.latencies_ms.append(elapsed_ms)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == 429:
            self.shed += 1
        if status == 200 and payload is not None:
            if payload.get("deadline_expired"):
                self.deadline_expired += 1
            if payload.get("shards_degraded"):
                self.degraded += 1
            if payload.get("partial"):
                self.partial += 1

    def merge(self, other: "LoadgenResult") -> None:
        """Fold a worker's private tallies into this one."""
        self.latencies_ms.extend(other.latencies_ms)
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count
        self.shed += other.shed
        self.deadline_expired += other.deadline_expired
        self.degraded += other.degraded
        self.partial += other.partial
        self.transport_errors += other.transport_errors

    def to_document(self, meta: dict | None = None) -> BenchDocument:
        """Export as a ``repro.bench/v1`` document (suite ``serving``).

        Latency percentiles and the 5xx count gate regressions
        (``lower``), throughput gates the other way (``higher``), and
        the remaining tallies are ``info`` — how much load was shed is
        configuration-dependent, not a regression by itself.
        """
        document = BenchDocument(
            suite="serving",
            meta=standard_meta(
                {
                    "mode": self.mode,
                    "clients": self.clients,
                    **(meta or {}),
                }
            ),
        )
        if self.requests:
            document.add(
                "serving.p50_ms", self.percentile_ms(50), "ms", "lower"
            )
            document.add(
                "serving.p90_ms", self.percentile_ms(90), "ms", "lower"
            )
            document.add(
                "serving.p99_ms", self.percentile_ms(99), "ms", "lower"
            )
            document.add("serving.mean_ms", self.mean_ms(), "ms", "lower")
        # With zero completed requests (a dead or unreachable server)
        # there are no latencies: emitting gated 0.0 percentiles would
        # either poison a baseline or make every real latency look like
        # a regression, so the latency metrics are omitted entirely.
        # The zero throughput stays — a dead server SHOULD fail a
        # higher-is-better throughput gate.
        document.add(
            "serving.throughput_qps", self.throughput_qps, "q/s", "higher"
        )
        document.add(
            "serving.server_errors", self.server_errors, "", "lower"
        )
        for name, value in (
            ("serving.requests", self.requests),
            ("serving.ok", self.ok),
            ("serving.shed", self.shed),
            ("serving.client_errors", self.client_errors),
            ("serving.deadline_expired", self.deadline_expired),
            ("serving.degraded_responses", self.degraded),
            ("serving.partial_responses", self.partial),
            ("serving.transport_errors", self.transport_errors),
        ):
            document.add(name, value, "", "info")
        return document

    def summary(self) -> str:
        """A one-paragraph human report."""
        return (
            f"{self.requests} requests in {self.duration_seconds:.2f}s "
            f"({self.throughput_qps:.1f} q/s, {self.mode} loop, "
            f"{self.clients} clients): "
            f"p50 {self.percentile_ms(50):.1f}ms / "
            f"p90 {self.percentile_ms(90):.1f}ms / "
            f"p99 {self.percentile_ms(99):.1f}ms; "
            f"{self.ok} ok, {self.shed} shed, "
            f"{self.client_errors} client errors, "
            f"{self.server_errors} server errors, "
            f"{self.transport_errors} transport errors; "
            f"{self.deadline_expired} deadline-expired, "
            f"{self.degraded} degraded"
        )


def _post_search(
    connection: HTTPConnection, body: bytes
) -> tuple[int, dict | None]:
    """One POST /search exchange on a kept-alive connection."""
    connection.request(
        "POST",
        "/search",
        body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    raw = response.read()
    try:
        payload = json.loads(raw) if raw else None
    except json.JSONDecodeError:
        payload = None
    return response.status, payload


def run_loadgen(
    url: str,
    queries: list[str],
    clients: int = 4,
    duration_seconds: float = 5.0,
    mode: str = "closed",
    rate: float | None = None,
    top_k: int = 10,
    deadline_ms: float | None = None,
) -> LoadgenResult:
    """Hammer a running server and measure what comes back.

    Args:
        url: server base URL (``http://host:port``).
        queries: query sequence texts, cycled round-robin.
        clients: concurrent worker connections.
        duration_seconds: how long to keep driving load.
        mode: ``"closed"`` (one in-flight request per client) or
            ``"open"`` (fire on a fixed schedule — needs ``rate``).
        rate: open-loop arrival rate, requests/second across all
            clients.
        top_k / deadline_ms: forwarded in every request body
            (``deadline_ms`` ``None`` leaves the server default).

    Raises:
        SearchError: on a bad configuration.
    """
    if not queries:
        raise SearchError("loadgen needs at least one query")
    if clients < 1:
        raise SearchError(f"clients must be >= 1, got {clients}")
    if duration_seconds <= 0:
        raise SearchError(
            f"duration_seconds must be > 0, got {duration_seconds}"
        )
    if mode not in LOADGEN_MODES:
        raise SearchError(
            f"unknown loadgen mode {mode!r}; expected one of {LOADGEN_MODES}"
        )
    if mode == "open" and (rate is None or rate <= 0):
        raise SearchError("open-loop mode needs a positive rate")
    parts = urlsplit(url)
    if not parts.hostname or not parts.port:
        raise SearchError(f"url must include host and port, got {url!r}")

    bodies = []
    for slot, text in enumerate(queries):
        request: dict = {"query": text, "id": f"loadgen-{slot}", "top_k": top_k}
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        bodies.append(json.dumps(request).encode("utf-8"))

    started = time.perf_counter()
    stop_at = started + duration_seconds
    worker_results = [
        LoadgenResult(mode, clients, 0.0) for _ in range(clients)
    ]

    def worker(slot: int) -> None:
        result = worker_results[slot]
        connection = HTTPConnection(
            parts.hostname, parts.port, timeout=30.0
        )
        sent = 0
        try:
            while True:
                now = time.perf_counter()
                if now >= stop_at:
                    break
                if mode == "open":
                    # Worker `slot` owns arrivals slot, slot+clients, …
                    # of the global schedule; sleep until the next one
                    # (never skipping — lateness is the signal).
                    due = started + (slot + sent * clients) / rate
                    if due >= stop_at:
                        break
                    delay = due - now
                    if delay > 0:
                        time.sleep(delay)
                body = bodies[(slot + sent * clients) % len(bodies)]
                exchange_started = time.perf_counter()
                try:
                    status, payload = _post_search(connection, body)
                except (HTTPException, OSError):
                    result.transport_errors += 1
                    connection.close()
                    connection = HTTPConnection(
                        parts.hostname, parts.port, timeout=30.0
                    )
                else:
                    result.merge_exchange(
                        status,
                        (time.perf_counter() - exchange_started) * 1000.0,
                        payload,
                    )
                sent += 1
        finally:
            connection.close()

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"loadgen-{slot}")
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    merged = LoadgenResult(mode, clients, elapsed)
    for result in worker_results:
        merged.merge(result)
    return merged


def run_serving_benchmark(
    shards: int = 3,
    fault_shard: int | None = None,
    clients: int = 4,
    duration_seconds: float = 3.0,
    mode: str = "closed",
    rate: float | None = None,
    deadline_ms: float = 500.0,
    top_k: int = 5,
    max_in_flight: int = 4,
    queue_limit: int = 8,
    num_families: int = 6,
    family_size: int = 4,
    num_background: int = 40,
    mean_length: int = 300,
    query_length: int = 120,
    seed: int = 17,
    root: str | Path | None = None,
) -> tuple[LoadgenResult, BenchDocument]:
    """The self-contained fault-injected serving benchmark.

    Builds a synthetic collection split over ``shards`` on-disk
    indexes, optionally zeroes ``fault_shard``'s entire posting blob
    (every posting fetch there then fails its CRC), boots an in-process
    server over a *resilient* engine spanning them, drives it with
    :func:`run_loadgen`, and returns the measured result plus its bench
    document.  Temporary artefacts live under ``root`` (a fresh temp
    directory when ``None``) and are removed afterwards.

    Raises:
        SearchError: on a bad shard/fault configuration.
    """
    # Imported here so `import repro.serving.loadgen` stays cheap for
    # pure client use (no engine/index machinery pulled in).
    from repro.index.builder import IndexParameters, build_index
    from repro.index.storage import DiskIndex, write_index
    from repro.index.store import MemorySequenceSource
    from repro.instrumentation.faults import index_sections, zero_page
    from repro.search.engine import PartitionedSearchEngine
    from repro.search.resilience import RetryPolicy, ShardResilience
    from repro.serving.server import SearchServer, ServerConfig
    from repro.workloads.queries import make_family_queries
    from repro.workloads.synthetic import WorkloadSpec, generate_collection

    if shards < 1:
        raise SearchError(f"shards must be >= 1, got {shards}")
    if fault_shard is not None and not 0 <= fault_shard < shards:
        raise SearchError(
            f"fault_shard must lie in [0, {shards}), got {fault_shard}"
        )

    spec = WorkloadSpec(
        num_families=num_families,
        family_size=family_size,
        num_background=num_background,
        mean_length=mean_length,
        seed=seed,
    )
    collection = generate_collection(spec)
    sequences = list(collection.sequences)
    cases = make_family_queries(
        collection, num_families, query_length=query_length, seed=seed + 1
    )
    queries = [case.query.text for case in cases]

    cleanup = root is None
    root = Path(tempfile.mkdtemp(prefix="repro-serving-")) if cleanup else Path(root)
    root.mkdir(parents=True, exist_ok=True)
    per_shard = max(1, (len(sequences) + shards - 1) // shards)
    opened: list[DiskIndex] = []
    engine = None
    try:
        shard_pairs = []
        for slot in range(shards):
            part = sequences[slot * per_shard : (slot + 1) * per_shard]
            if not part:
                raise SearchError(
                    f"shard {slot} is empty: {len(sequences)} sequences "
                    f"over {shards} shards"
                )
            path = root / f"shard{slot}.rpix"
            write_index(
                build_index(part, IndexParameters(interval_length=8)), path
            )
            if slot == fault_shard:
                # Zero the whole posting blob: the header and vocabulary
                # stay valid (the index *opens*), but every posting
                # fetch fails its CRC — a deterministically broken shard.
                start, end = index_sections(path)["blob"]
                zero_page(path, start, end - start)
            opened.append(DiskIndex(path))
            shard_pairs.append((opened[-1], MemorySequenceSource(part)))

        engine = PartitionedSearchEngine.over_shards(
            shard_pairs,
            on_corruption="raise",
            resilience=ShardResilience(
                shard_timeout=max(1.0, 4 * deadline_ms / 1000.0),
                retry=RetryPolicy(
                    max_attempts=2, base_delay=0.005, max_delay=0.05
                ),
                breaker_failures=3,
                breaker_reset_seconds=60.0,
                seed=seed,
            ),
        )
        config = ServerConfig(
            default_deadline_seconds=deadline_ms / 1000.0,
            max_in_flight=max_in_flight,
            queue_limit=queue_limit,
            default_top_k=top_k,
        )
        with SearchServer(engine, config) as server:
            result = run_loadgen(
                server.url,
                queries,
                clients=clients,
                duration_seconds=duration_seconds,
                mode=mode,
                rate=rate,
                top_k=top_k,
                deadline_ms=deadline_ms,
            )
            breakers = engine.breaker_states()
        document = result.to_document(
            {
                "shards": shards,
                "fault_shard": fault_shard,
                "deadline_ms": deadline_ms,
                "max_in_flight": max_in_flight,
                "queue_limit": queue_limit,
                "rate": rate,
                "breakers": {str(k): v for k, v in breakers.items()},
                "workload": {
                    "num_families": num_families,
                    "family_size": family_size,
                    "num_background": num_background,
                    "mean_length": mean_length,
                    "query_length": query_length,
                    "seed": seed,
                },
            }
        )
        return result, document
    finally:
        if engine is not None:
            engine.close()
        for index in opened:
            index.close()
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
