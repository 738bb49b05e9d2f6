"""``serve_http``: the ``coarse_heavy`` engine behind the HTTP server, in a
child process, loaded from this one over keep-alive connections.

The timed run is an **open loop**: requests fall due every 1/25 s
whatever the server does, and each is timed from the moment it was
*due*, so a stall is charged to every request it delays; how late the
generator itself ran is reported.

The traced run adds a **closed loop** (each connection sends its next
request when the previous answer arrives) as per-layer metrics only.
At HEAD a keep-alive connection used back to back stalls 40-50 ms per
request in the transport, and the kernel's delayed-ACK timing puts a run
in one of several regimes (34, 38, 56 or 117 requests/s were all seen on
the same build), so closed-loop throughput cannot carry a regression
bound; see README.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from statistics import median

import numpy as np

from repro import SearchServer, ServerConfig
from repro.instrumentation import Instruments

from e2e_bench import layers
from e2e_bench.harness import (
    Built,
    Cycle,
    Run,
    end_to_end,
    peak_rss_mb,
    quiet_quartile,
    searches_per_second,
    set_up,
    slices,
    tear_down,
)
from e2e_bench.inputs import Case
from e2e_bench.spec import OPEN_LOOP_RATE

CHILD = Path(__file__).resolve().parent / "serve_child.py"
CONNECTIONS = 2
#: The warm-up is a closed loop too, so each connection stalls ~42 ms a
#: request (see README); eight of them get through the distinct queries
#: in about two seconds without the admission queue shedding any.
WARMUP_CONNECTIONS = 8
READY_TIMEOUT = 60.0


class Server:
    """The child process serving one database."""

    def __init__(self, built: Built, coarse_cutoff: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(CHILD), str(built.path), str(coarse_cutoff)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select(
                [self.process.stdout], [], [], READY_TIMEOUT
            )
            line = self.process.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"server child not ready: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.close()
            raise

    def connect(self) -> HTTPConnection:
        return HTTPConnection("127.0.0.1", self.port, timeout=30.0)

    def stats(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def close(self) -> None:
        """End the child and wait for it (always reaped)."""
        process = self.process
        if process.poll() is None:
            process.stdin.close()
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()
        process.stdout.close()


@dataclass
class Exchange:
    """One request's outcome, checked after the phase ends."""

    case: Case
    status: int
    payload: dict
    done: float  # perf_counter() when the answer was read
    latency: float
    late: float = 0.0


def request_body(case: Case, top_k: int) -> bytes:
    return json.dumps({
        "id": case.query.identifier, "query": case.query.text, "top_k": top_k,
    }).encode()


def post(connection: HTTPConnection, body: bytes) -> tuple[int, dict]:
    connection.request(
        "POST", "/search", body, {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class LoadGenerator:
    """Drives ``connections`` keep-alive connections from threads of this
    process; the query cursor is shared, so each request is a new case."""

    def __init__(self, run: Run, server: Server, cycle: Cycle) -> None:
        self.run = run
        self.server = server
        self.cycle = cycle
        self._lock = threading.Lock()
        self._issued = 0

    def _claim(self, limit: float) -> tuple[int, Case] | None:
        with self._lock:
            if self._issued >= limit:
                return None
            self._issued += 1
            return self._issued - 1, self.cycle.next()

    def _drive(self, connections: int, worker) -> list[Exchange]:
        self._issued = 0
        with ThreadPoolExecutor(max_workers=connections) as pool:
            futures = [pool.submit(worker) for _ in range(connections)]
            exchanges = [e for future in futures for e in future.result()]
        exchanges.sort(key=lambda exchange: exchange.done)
        self._check(exchanges)
        return exchanges

    def open_loop(self, requests: int, rate: float) -> list[Exchange]:
        """``requests`` arrivals at a fixed ``rate``, each timed from its
        due time."""
        top_k = self.run.workload.top_k
        origin = time.perf_counter() + 0.05

        def worker() -> list[Exchange]:
            done = []
            connection = self.server.connect()
            try:
                while (claim := self._claim(requests)) is not None:
                    number, case = claim
                    body = request_body(case, top_k)
                    due = origin + number / rate
                    wait = due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = time.perf_counter()
                    status, payload = post(connection, body)
                    now = time.perf_counter()
                    done.append(Exchange(
                        case, status, payload, now, now - due, sent - due
                    ))
            finally:
                connection.close()
            return done

        return self._drive(CONNECTIONS, worker)

    def closed_loop(
        self, connections: int, seconds: float,
        requests: float = float("inf"),
    ) -> tuple[list[Exchange], float]:
        """Each connection sends its next request on the previous
        answer, until ``seconds`` pass or ``requests`` are sent; returns
        the exchanges and the requests completed per second."""
        top_k = self.run.workload.top_k
        started = time.perf_counter()
        stop = started + seconds

        def worker() -> list[Exchange]:
            done = []
            connection = self.server.connect()
            try:
                while (
                    time.perf_counter() < stop
                    and (claim := self._claim(requests)) is not None
                ):
                    case = claim[1]
                    body = request_body(case, top_k)
                    sent = time.perf_counter()
                    status, payload = post(connection, body)
                    now = time.perf_counter()
                    done.append(Exchange(
                        case, status, payload, now, now - sent
                    ))
            finally:
                connection.close()
            return done

        exchanges = self._drive(connections, worker)
        # Completions per second over each slice of the phase.
        done = [started] + [exchange.done for exchange in exchanges]
        edges = np.cumsum([0] + [len(part) for part in slices(exchanges)])
        return exchanges, quiet_quartile(
            [(b - a) / (done[b] - done[a]) for a, b in zip(edges, edges[1:])],
            "higher",
        )

    def _check(self, exchanges: list[Exchange]) -> None:
        top_k = self.run.workload.top_k
        for exchange in exchanges:
            payload = exchange.payload
            problem = None
            if exchange.status != 200:
                problem = f"HTTP {exchange.status}"
            elif payload["partial"] or payload["degraded"]:
                problem = "partial or degraded response"
            hits = [
                (hit["identifier"], hit["score"])
                for hit in payload.get("hits", [])
            ]
            self.run.checker.search(exchange.case, hits, top_k, problem)


def run_serve(run: Run) -> dict[str, float]:
    cutoff = run.workload.coarse_cutoff
    built, server, setup_s = set_up(run, lambda b: Server(b, cutoff))
    try:
        load = LoadGenerator(run, server, Cycle(built.cases))
        load.closed_loop(
            WARMUP_CONNECTIONS, run.warmup_seconds, len(built.cases)
        )
        if run.traced:
            return traced_serve(run, built, server, load)
        exchanges = load.open_loop(
            max(1, int(OPEN_LOOP_RATE * run.seconds)), OPEN_LOOP_RATE
        )
        run.notes.append(
            "open-loop generator lateness p95 "
            f"{np.percentile([e.late for e in exchanges], 95) * 1e3:.3f} ms"
        )
        latencies = [exchange.latency for exchange in exchanges]
        return end_to_end(
            run, built, setup_s, latencies, searches_per_second(latencies)
        )
    finally:
        tear_down(built, server)


def traced_serve(
    run: Run, built: Built, server: Server, load: LoadGenerator
) -> dict[str, float]:
    """Where a served query's time goes: the same queries over HTTP, then
    through ``handle_request`` with no transport, then through the
    engine, all on this database; then the engine's own layers."""
    recorder = run.recorder
    workload = run.workload
    cases = built.cases[: workload.trace_queries]
    late = [e.late for e in load.open_loop(len(cases), OPEN_LOOP_RATE)]
    # Two load threads and a server want two cores; on one, a parallel
    # throughput would measure the scheduler.
    connections = CONNECTIONS if (os.cpu_count() or 1) >= 2 else 1
    if connections < CONNECTIONS:
        run.notes.append(
            "nproc == 1: the closed loop ran on 1 connection; "
            "serving.closed_loop.qps is not comparable with a 2-connection run"
        )
    closed, closed_qps = load.closed_loop(
        connections, float("inf"), 2 * len(cases)
    )

    engine = built.db.engine(coarse_cutoff=workload.coarse_cutoff)
    local = SearchServer(
        engine, ServerConfig(default_deadline_seconds=None), Instruments()
    )
    connection = server.connect()
    try:
        for case in cases:
            body = request_body(case, workload.top_k)
            with recorder.span("query", query=case.query.identifier):
                with recorder.span("serving.http.round_trip"):
                    status, _ = post(connection, body)
                with recorder.span("serving.server.handle_request"):
                    local_status, _, _ = local.handle_request(
                        "POST", "/search", body
                    )
                with recorder.span("serving.engine.search"):
                    engine.search(case.query, top_k=workload.top_k)
            run.checker.operation(
                status == 200 and local_status == 200,
                f"{case.query.identifier}: HTTP {status}, "
                f"handle_request {local_status}",
            )
    finally:
        connection.close()
    shed = server.stats()["admission"]["shed"]
    server_rss = peak_rss_mb(server.process.pid)

    round_trip = recorder.milliseconds("serving.http.round_trip")
    handle = recorder.milliseconds("serving.server.handle_request")
    search = recorder.milliseconds("serving.engine.search")
    metrics = layers.database_metrics(run, built)
    metrics.update(layers.trace_single(run, built, engine))
    metrics.update({
        "serving.server.handle_request_ms": median(handle),
        "serving.server.handle_overhead_ms": median(
            h - s for h, s in zip(handle, search)
        ),
        "serving.transport_ms": median(
            r - h for r, h in zip(round_trip, handle)
        ),
        "serving.closed_loop.qps": closed_qps,
        "serving.closed_loop.p50_ms": median(e.latency for e in closed) * 1e3,
        "serving.admission.shed": shed,
        "serving.loadgen.late_p95_ms": float(np.percentile(late, 95)) * 1e3,
        "serving.server.peak_rss_mb": server_rss,
        "trace.search_ms_ratio": metrics["search.engine.search_ms"]
        / median(search),
    })
    return metrics
