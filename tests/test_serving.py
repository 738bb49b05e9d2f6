"""Serving layer: admission control, the transport-free request core,
the HTTP shell, and the fault-injected soak.

The soak is the PR's acceptance criterion in miniature: with one
shard's posting blob zeroed, every request must still complete without
a 5xx and every degraded answer must say so.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.errors import SearchError
from repro.index.builder import IndexParameters, build_index
from repro.index.storage import DiskIndex, write_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation import faults
from repro.instrumentation.instruments import Instruments
from repro.search.engine import PartitionedSearchEngine
from repro.search.resilience import RetryPolicy, ShardResilience
from repro.sequences.record import Sequence
from repro.serving import AdmissionController, SearchServer, ServerConfig

PARAMS = IndexParameters(interval_length=6)


def _records(count=24, length=200, seed=29):
    rng = np.random.default_rng(seed)
    records = []
    for slot in range(count):
        codes = rng.integers(0, 4, length, dtype=np.uint8)
        if slot and slot % 4 == 0:
            codes[30:90] = records[0].codes[30:90]
        records.append(Sequence(f"srv{slot:03d}", codes))
    return records


def _query_text(records):
    return "".join("ACGT"[c] for c in records[0].codes[20:120])


@pytest.fixture(scope="module")
def records():
    return _records()


@pytest.fixture(scope="module")
def engine(records):
    index = build_index(records, PARAMS)
    return PartitionedSearchEngine(index, MemorySequenceSource(records))


def _body(text, **extra):
    return json.dumps({"query": text, **extra}).encode()


class TestAdmissionController:
    def test_admits_below_limit(self):
        admission = AdmissionController(max_in_flight=2, queue_limit=4)
        assert admission.try_admit()
        assert admission.try_admit()
        assert admission.in_flight == 2

    def test_sheds_at_limit_without_wait(self):
        admission = AdmissionController(max_in_flight=1, queue_limit=4)
        assert admission.try_admit()
        assert not admission.try_admit(wait_seconds=0.0)
        assert admission.shed == 1

    def test_sheds_when_queue_full(self):
        admission = AdmissionController(max_in_flight=1, queue_limit=0)
        assert admission.try_admit()
        assert not admission.try_admit(wait_seconds=5.0)
        assert admission.shed == 1

    def test_release_wakes_a_waiter(self):
        admission = AdmissionController(max_in_flight=1, queue_limit=4)
        assert admission.try_admit()
        outcome = []

        def waiter():
            outcome.append(admission.try_admit(wait_seconds=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        # Let the waiter block, then free the slot.
        time.sleep(0.05)
        admission.release()
        thread.join(timeout=5.0)
        assert outcome == [True]
        assert admission.shed == 0
        admission.release()
        assert admission.in_flight == 0

    def test_bounded_wait_expires(self):
        admission = AdmissionController(max_in_flight=1, queue_limit=4)
        assert admission.try_admit()
        started = time.monotonic()
        assert not admission.try_admit(wait_seconds=0.05)
        assert time.monotonic() - started < 2.0
        assert admission.shed == 1

    def test_unpaired_release_raises(self):
        admission = AdmissionController()
        with pytest.raises(SearchError):
            admission.release()

    def test_validation(self):
        with pytest.raises(SearchError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(SearchError):
            AdmissionController(queue_limit=-1)

    def test_snapshot(self):
        admission = AdmissionController(max_in_flight=2, queue_limit=3)
        admission.try_admit()
        snap = admission.snapshot()
        assert snap["in_flight"] == 1
        assert snap["max_in_flight"] == 2
        assert snap["queue_limit"] == 3
        assert snap["shed"] == 0


class TestHandleRequest:
    """The transport-free core: no sockets involved."""

    @pytest.fixture()
    def server(self, engine):
        return SearchServer(engine, ServerConfig())

    def _json(self, response):
        status, headers, body = response
        return status, headers, json.loads(body)

    def test_search_ok(self, server, records):
        status, headers, payload = self._json(
            server.handle_request(
                "POST", "/search", _body(_query_text(records), top_k=3)
            )
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert payload["hits"], "planted query must hit"
        assert len(payload["hits"]) <= 3
        assert payload["partial"] is False
        assert payload["deadline_expired"] is False
        assert payload["shards_degraded"] == []
        hit = payload["hits"][0]
        assert set(hit) == {
            "ordinal", "identifier", "score", "coarse_score",
            "strand", "evalue",
        }

    def test_bad_json_is_400(self, server):
        status, _, payload = self._json(
            server.handle_request("POST", "/search", b"{nope")
        )
        assert status == 400
        assert "JSON" in payload["error"]

    def test_missing_query_is_400(self, server):
        status, _, payload = self._json(
            server.handle_request("POST", "/search", b"{}")
        )
        assert status == 400

    def test_bad_alphabet_is_400(self, server):
        status, _, payload = self._json(
            server.handle_request(
                "POST", "/search", _body("NOTDNA123")
            )
        )
        assert status == 400
        assert "query" in payload["error"]

    def test_bad_top_k_is_400(self, server, records):
        for top_k in (0, -1, "five", 10_000, True):
            status, _, _ = self._json(
                server.handle_request(
                    "POST", "/search",
                    _body(_query_text(records), top_k=top_k),
                )
            )
            assert status == 400, f"top_k={top_k!r}"

    def test_bad_deadline_is_400(self, server, records):
        for deadline_ms in (0, -5, "fast"):
            status, _, _ = self._json(
                server.handle_request(
                    "POST", "/search",
                    _body(_query_text(records), deadline_ms=deadline_ms),
                )
            )
            assert status == 400, f"deadline_ms={deadline_ms!r}"

    def test_oversized_body_is_400(self, engine):
        server = SearchServer(engine, ServerConfig(max_body_bytes=64))
        status, _, _ = server.handle_request(
            "POST", "/search", b"x" * 65
        )
        assert status == 400

    def test_unknown_endpoint_is_404(self, server):
        status, _, _ = server.handle_request("GET", "/nope", b"")
        assert status == 404

    def test_short_query_is_client_error(self, server):
        # Shorter than the interval length: the engine rejects it, and
        # that rejection must surface as a 400, not a 500.
        status, _, payload = self._json(
            server.handle_request("POST", "/search", _body("ACG"))
        )
        assert status == 400

    def test_health_and_stats(self, server):
        status, _, health = self._json(
            server.handle_request("GET", "/health", b"")
        )
        assert status == 200
        assert health["status"] == "ok"
        status, _, stats = self._json(
            server.handle_request("GET", "/stats", b"")
        )
        assert status == 200
        assert "admission" in stats

    def test_metrics_endpoint_is_prometheus_text(self, engine):
        server = SearchServer(engine, instruments=Instruments())
        status, headers, body = server.handle_request("GET", "/metrics", b"")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_" in body

    def test_saturation_sheds_with_retry_after(self, records):
        class StallingEngine:
            def __init__(self):
                self.release = threading.Event()

            def search(self, query, top_k=10, deadline=None):
                self.release.wait(timeout=10.0)
                raise AssertionError("never reached in this test")

        stalling = StallingEngine()
        server = SearchServer(
            stalling,
            ServerConfig(
                max_in_flight=1, queue_limit=0, admission_wait_seconds=0.0
            ),
        )
        body = _body(_query_text(records))
        blocker = threading.Thread(
            target=server.handle_request, args=("POST", "/search", body)
        )
        blocker.start()
        try:
            # Wait until the blocker actually holds the slot.
            for _ in range(100):
                if server.admission.in_flight:
                    break
                time.sleep(0.01)
            status, headers, payload = server.handle_request(
                "POST", "/search", body
            )
            assert status == 429
            assert "Retry-After" in headers
            assert json.loads(payload)["retry_after_seconds"] > 0
        finally:
            stalling.release.set()
            blocker.join(timeout=5.0)

    def test_engine_crash_is_500_not_raise(self, records):
        class BrokenEngine:
            def search(self, query, top_k=10, deadline=None):
                raise RuntimeError("kaboom")

        instruments = Instruments()
        server = SearchServer(BrokenEngine(), instruments=instruments)
        status, _, payload = server.handle_request(
            "POST", "/search", _body(_query_text(_records()))
        )
        assert status == 500
        counters = instruments.metrics.snapshot()["counters"]
        assert counters["serving.server_errors"] == 1


class TestHTTPShell:
    def test_roundtrip_over_sockets(self, engine, records):
        with SearchServer(engine, ServerConfig(port=0)) as server:
            connection = HTTPConnection(server.host, server.port, timeout=10)
            try:
                body = _body(_query_text(records), top_k=2)
                connection.request(
                    "POST", "/search", body,
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert payload["hits"]
                # Keep-alive: a second request on the same connection.
                connection.request("GET", "/health", None, {})
                response = connection.getresponse()
                assert response.status == 200
            finally:
                connection.close()

    def test_keep_alive_requests_do_not_stall(self, engine):
        # Response headers and payload are two writes; with Nagle on,
        # each back-to-back keep-alive request waited ~40 ms for the
        # client's delayed ACK.  So the server side of the one accepted
        # keep-alive connection must have TCP_NODELAY set.
        accepted = []
        with SearchServer(engine, ServerConfig(port=0)) as server:
            httpd = server._httpd
            get_request = httpd.get_request

            def recording_get_request():
                connection, address = get_request()
                accepted.append(connection)
                return connection, address

            httpd.get_request = recording_get_request
            connection = HTTPConnection(server.host, server.port, timeout=10)
            try:
                for _ in range(20):
                    connection.request("GET", "/health")
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
                assert len(accepted) == 1
                assert accepted[0].getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            finally:
                connection.close()

    def test_double_start_raises(self, engine):
        server = SearchServer(engine, ServerConfig(port=0))
        server.start()
        try:
            with pytest.raises(SearchError):
                server.start()
        finally:
            server.stop()
        server.stop()  # idempotent


def _sharded_with_fault(records, tmp_path, fault_shard=1, shards=3):
    """Disk shards (three by default), one with its posting blob zeroed."""
    pairs = []
    indexes = []
    for slot in range(shards):
        part = records[slot::shards]
        path = tmp_path / f"shard{slot}.rpix"
        write_index(build_index(part, PARAMS), path)
        if slot == fault_shard:
            start, end = faults.index_sections(path)["blob"]
            faults.zero_page(path, start, end - start)
        index = DiskIndex(path)
        indexes.append(index)
        pairs.append((index, MemorySequenceSource(part)))
    engine = PartitionedSearchEngine.over_shards(
        pairs,
        resilience=ShardResilience(
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.001, max_delay=0.002,
                jitter=0.0,
            ),
            breaker_failures=2,
            breaker_reset_seconds=60.0,
            seed=5,
        ),
    )
    return engine, indexes


def test_lone_broken_shard_yields_flagged_report(records, tmp_path):
    """Resilience protects a one-shard engine too: the shard exhausts
    its retries and the query returns empty and flagged, not raising."""
    engine, indexes = _sharded_with_fault(
        records, tmp_path, fault_shard=0, shards=1
    )
    try:
        report = engine.search(
            Sequence("q", records[0].codes[20:120].copy()), top_k=5
        )
        assert report.hits == []
        assert report.shards_degraded == (0,)
        assert report.partial
        assert set(engine.breaker_states()) == {0}
    finally:
        engine.close()
        for index in indexes:
            index.close()


class TestFaultInjectedSoak:
    def test_soak_zero_5xx_and_annotated_degradation(
        self, records, tmp_path
    ):
        engine, indexes = _sharded_with_fault(records, tmp_path)
        instruments = Instruments()
        server = SearchServer(
            engine,
            ServerConfig(default_deadline_seconds=5.0),
            instruments=instruments,
        )
        query = _query_text(records)
        try:
            statuses = []
            degraded = 0
            for _ in range(25):
                status, _, body = server.handle_request(
                    "POST", "/search", _body(query, top_k=5)
                )
                statuses.append(status)
                payload = json.loads(body)
                if status == 200:
                    # The resilience contract: annotations always present.
                    assert "partial" in payload
                    assert "shards_degraded" in payload
                    if payload["shards_degraded"]:
                        degraded += 1
                        assert payload["partial"] is True
                        assert payload["shards_degraded"] == [1]
            assert all(status < 500 for status in statuses)
            assert degraded == 25, "every query touches the zeroed shard"
            # The fault shard's breaker must have tripped.
            assert engine.breaker_states()[1] == "open"
            status, _, body = server.handle_request("GET", "/health", b"")
            health = json.loads(body)
            assert health["status"] == "degraded"
            assert health["shards_broken"] == ["1"]
            counters = instruments.metrics.snapshot()["counters"]
            assert counters.get("serving.server_errors", 0) == 0
            assert counters["serving.degraded_responses"] == 25
        finally:
            engine.close()
            for index in indexes:
                index.close()

    def test_concurrent_keep_alive_clients_over_sockets(
        self, records, tmp_path
    ):
        """The soak over real sockets: three clients, each on one
        keep-alive connection, hit the faulty server concurrently."""
        engine, indexes = _sharded_with_fault(records, tmp_path)
        body = _body(_query_text(records), top_k=3)
        clients, requests_each = 3, 10
        start = threading.Barrier(clients, timeout=10)
        responses = []
        errors = []

        def client(host, port):
            connection = HTTPConnection(host, port, timeout=10)
            try:
                start.wait()
                for _ in range(requests_each):
                    connection.request(
                        "POST", "/search", body,
                        {"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    responses.append((response.status, payload))
            except Exception as exc:  # transport failures are asserted below
                errors.append(exc)
            finally:
                connection.close()

        try:
            with SearchServer(engine, ServerConfig()) as server:
                threads = [
                    threading.Thread(
                        target=client, args=(server.host, server.port)
                    )
                    for _ in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(responses) == clients * requests_each
            assert all(status < 500 for status, _ in responses)
            ok = [payload for status, payload in responses if status == 200]
            assert ok
            for payload in ok:
                assert payload["shards_degraded"] == [1]
                assert payload["partial"] is True
            assert engine.breaker_states()[1] == "open"
        finally:
            engine.close()
            for index in indexes:
                index.close()
