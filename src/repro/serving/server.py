"""A long-lived threaded HTTP/JSON search server.

The server is a thin, resilient shell around any engine whose
``search(query, top_k=..., deadline=...)`` returns a
:class:`~repro.search.results.SearchReport` — the partitioned engine
or the database facade.  Its job is to make the
engine safe to expose:

* every request gets a :class:`~repro.search.deadline.Deadline` (the
  client's ``deadline_ms`` clamped to a server maximum, else the
  configured default), so no query runs away;
* an :class:`~repro.serving.admission.AdmissionController` bounds
  in-flight work and sheds the overflow with ``429`` + ``Retry-After``;
* every response carries its resilience annotations — ``partial``,
  ``deadline_expired``, ``shards_degraded`` — so a degraded answer is
  never mistaken for a complete one;
* client mistakes are ``4xx`` and *engine* trouble degrades (the
  resilient engine absorbs shard failures), so a healthy
  deployment returns zero ``5xx`` even under injected faults.

Endpoints: ``POST /search``, ``GET /health``, ``GET /metrics``
(Prometheus text), ``GET /stats`` (JSON).  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import AlphabetError, ReproError, SearchError
from repro.instrumentation.export import prometheus_text
from repro.instrumentation.instruments import Instruments, coalesce
from repro.search.deadline import Deadline
from repro.search.results import SearchReport
from repro.sequences.record import Sequence
from repro.serving.admission import AdmissionController

__all__ = ["SearchServer", "ServerConfig"]

_LOG = logging.getLogger(__name__)

#: JSON content type used for every response body.
_JSON = "application/json"


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for one :class:`SearchServer`.

    Args:
        host / port: bind address; port 0 picks an ephemeral port
            (read the real one from ``server.port`` after start).
        default_deadline_seconds: per-request budget when the client
            sends none; ``None`` means such requests are unbounded.
        max_deadline_seconds: ceiling a client ``deadline_ms`` is
            clamped to (a client cannot buy an unbounded query).
        max_in_flight / queue_limit / admission_wait_seconds: admission
            control — concurrent evaluations, callers allowed to queue,
            and how long a queued caller waits before being shed.
        retry_after_seconds: value of the ``Retry-After`` header on a
            shed (429) response.
        default_top_k / max_top_k: answer-count default and ceiling.
        max_body_bytes: requests with larger bodies are rejected (413).

    Raises:
        SearchError: if a knob is out of range.
    """

    host: str = "127.0.0.1"
    port: int = 0
    default_deadline_seconds: float | None = 2.0
    max_deadline_seconds: float = 30.0
    max_in_flight: int = 4
    queue_limit: int = 16
    admission_wait_seconds: float = 0.5
    retry_after_seconds: float = 1.0
    default_top_k: int = 10
    max_top_k: int = 100
    max_body_bytes: int = 1_000_000

    def __post_init__(self) -> None:
        if (
            self.default_deadline_seconds is not None
            and self.default_deadline_seconds <= 0
        ):
            raise SearchError(
                "default_deadline_seconds must be > 0 or None, got "
                f"{self.default_deadline_seconds}"
            )
        if self.max_deadline_seconds <= 0:
            raise SearchError(
                "max_deadline_seconds must be > 0, got "
                f"{self.max_deadline_seconds}"
            )
        if self.admission_wait_seconds < 0:
            raise SearchError(
                "admission_wait_seconds must be >= 0, got "
                f"{self.admission_wait_seconds}"
            )
        if self.retry_after_seconds < 0:
            raise SearchError(
                "retry_after_seconds must be >= 0, got "
                f"{self.retry_after_seconds}"
            )
        if not 1 <= self.default_top_k <= self.max_top_k:
            raise SearchError(
                f"default_top_k must lie in [1, {self.max_top_k}], got "
                f"{self.default_top_k}"
            )
        if self.max_body_bytes < 1:
            raise SearchError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )


class _BadRequest(ReproError):
    """A client mistake: becomes a 400 with the message as the error."""


class SearchServer:
    """Serve an engine's ``search`` over HTTP with resilience built in.

    Args:
        engine: anything with ``search(query, top_k=..., deadline=...)``
            returning a :class:`SearchReport`.  If it also exposes
            ``breaker_states()`` (the partitioned engine does), those
            states appear in ``/health`` and ``/stats``.
        config: server knobs; defaults are sensible for tests.
        instruments: observability sink shared with the engine when
            you want one scrape to cover the whole stack.

    The request-handling core (:meth:`handle_request`) is transport
    free — tests can drive it without sockets — and the HTTP shell is
    a stdlib :class:`ThreadingHTTPServer` started by :meth:`start`.
    """

    def __init__(
        self,
        engine,
        config: ServerConfig | None = None,
        instruments: Instruments | None = None,
    ) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self.instruments = coalesce(instruments)
        self.admission = AdmissionController(
            max_in_flight=self.config.max_in_flight,
            queue_limit=self.config.queue_limit,
        )
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- the transport-free request core --------------------------------

    def handle_request(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        """Dispatch one request: ``(status, extra headers, body)``.

        Never raises: anything unexpected becomes a 500 payload (and a
        ``serving.server_errors`` count — the soak test pins this at
        zero for healthy deployments).
        """
        instruments = self.instruments
        instruments.count("serving.requests")
        started = time.perf_counter()
        try:
            if method == "POST" and path == "/search":
                status, headers, payload = self._search(body)
            elif method == "GET" and path == "/health":
                status, headers, payload = 200, {}, self._health()
            elif method == "GET" and path == "/stats":
                status, headers, payload = 200, {}, self._stats()
            elif method == "GET" and path == "/metrics":
                text = prometheus_text(instruments.metrics)
                return (
                    200,
                    {"Content-Type": "text/plain; version=0.0.4"},
                    text.encode("utf-8"),
                )
            else:
                instruments.count("serving.client_errors")
                status, headers, payload = (
                    404,
                    {},
                    {"error": f"no such endpoint: {method} {path}"},
                )
        except _BadRequest as exc:
            instruments.count("serving.client_errors")
            status, headers, payload = 400, {}, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the 5xx boundary
            _LOG.exception("unhandled error serving %s %s", method, path)
            instruments.count("serving.server_errors")
            status, headers, payload = 500, {}, {"error": str(exc)}
        instruments.observe(
            "serving.request_seconds", time.perf_counter() - started
        )
        headers = {"Content-Type": _JSON, **headers}
        return status, headers, json.dumps(payload).encode("utf-8")

    def _parse_search(self, body: bytes) -> tuple[Sequence, int, Deadline]:
        if len(body) > self.config.max_body_bytes:
            raise _BadRequest(
                f"request body exceeds {self.config.max_body_bytes} bytes"
            )
        try:
            request = json.loads(body or b"")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}")
        if not isinstance(request, dict):
            raise _BadRequest("request body must be a JSON object")
        text = request.get("query")
        if not isinstance(text, str) or not text:
            raise _BadRequest('"query" must be a non-empty string')
        identifier = request.get("id", "query")
        if not isinstance(identifier, str):
            raise _BadRequest('"id" must be a string')
        try:
            query = Sequence.from_text(identifier, text)
        except AlphabetError as exc:
            raise _BadRequest(f"bad query sequence: {exc}")

        top_k = request.get("top_k", self.config.default_top_k)
        if not isinstance(top_k, int) or isinstance(top_k, bool):
            raise _BadRequest('"top_k" must be an integer')
        if not 1 <= top_k <= self.config.max_top_k:
            raise _BadRequest(
                f'"top_k" must lie in [1, {self.config.max_top_k}], '
                f"got {top_k}"
            )

        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            seconds = self.config.default_deadline_seconds
        else:
            if not isinstance(deadline_ms, (int, float)) or isinstance(
                deadline_ms, bool
            ):
                raise _BadRequest('"deadline_ms" must be a number')
            if deadline_ms <= 0:
                raise _BadRequest(
                    f'"deadline_ms" must be > 0, got {deadline_ms}'
                )
            seconds = min(
                deadline_ms / 1000.0, self.config.max_deadline_seconds
            )
        return query, top_k, Deadline.after(seconds)

    def _search(self, body: bytes) -> tuple[int, dict[str, str], dict]:
        query, top_k, deadline = self._parse_search(body)
        if not self.admission.try_admit(self.config.admission_wait_seconds):
            self.instruments.count("serving.shed")
            return (
                429,
                {"Retry-After": f"{self.config.retry_after_seconds:g}"},
                {
                    "error": "server saturated, retry later",
                    "retry_after_seconds": self.config.retry_after_seconds,
                },
            )
        started = time.perf_counter()
        try:
            try:
                report = self.engine.search(
                    query, top_k=top_k, deadline=deadline
                )
            except SearchError as exc:
                # The engine rejected the *request* (query too short,
                # bad top_k): the client's fault, not the server's.
                raise _BadRequest(str(exc))
        finally:
            self.admission.release()
        elapsed = time.perf_counter() - started
        instruments = self.instruments
        instruments.count("serving.ok")
        if report.deadline_expired:
            instruments.count("serving.deadline_expired")
        if report.shards_degraded:
            instruments.count("serving.degraded_responses")
        return 200, {}, self._report_payload(report, elapsed)

    @staticmethod
    def _report_payload(report: SearchReport, elapsed: float) -> dict:
        return {
            "query_id": report.query_identifier,
            "hits": [
                {
                    "ordinal": hit.ordinal,
                    "identifier": hit.identifier,
                    "score": hit.score,
                    "coarse_score": hit.coarse_score,
                    "strand": hit.strand,
                    "evalue": hit.evalue,
                }
                for hit in report.hits
            ],
            "candidates_examined": report.candidates_examined,
            "elapsed_ms": elapsed * 1000.0,
            # The resilience contract: a caller can always tell whether
            # the ranking covered the whole collection.
            "partial": report.partial,
            "deadline_expired": report.deadline_expired,
            "degraded": report.degraded,
            "shards_degraded": list(report.shards_degraded),
        }

    def _breaker_states(self) -> dict[str, str]:
        states = getattr(self.engine, "breaker_states", None)
        if states is None:
            return {}
        return {str(slot): state for slot, state in states().items()}

    def _health(self) -> dict:
        breakers = self._breaker_states()
        broken = sorted(
            slot for slot, state in breakers.items() if state != "closed"
        )
        return {
            "status": "degraded" if broken else "ok",
            "breakers": breakers,
            "shards_broken": broken,
            "in_flight": self.admission.in_flight,
        }

    def _stats(self) -> dict:
        return {
            "admission": self.admission.snapshot(),
            "breakers": self._breaker_states(),
            "coarse_backend": getattr(
                self.engine, "coarse_backend", "inverted"
            ),
            "lsm": getattr(self.engine, "lsm_info", None),
            "metrics": self.instruments.metrics.snapshot(),
        }

    # -- the HTTP shell --------------------------------------------------

    def start(self) -> None:
        """Bind and serve on a daemon thread (idempotent).

        Raises:
            SearchError: when already started.
        """
        if self._httpd is not None:
            raise SearchError("server already started")
        server = self

        class Handler(BaseHTTPRequestHandler):
            # Keep-alive needs correct Content-Length framing, which
            # _respond always provides.
            protocol_version = "HTTP/1.1"
            # Headers and payload go out as two writes; with Nagle on,
            # the second waits for the client's delayed ACK of the
            # first (40-50 ms per keep-alive request).  TCP_NODELAY.
            disable_nagle_algorithm = True

            def _respond(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                status, headers, payload = server.handle_request(
                    self.command, self.path, body
                )
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            do_GET = _respond
            do_POST = _respond

            def log_message(self, format, *args):  # noqa: A002
                _LOG.debug("%s - %s", self.address_string(), format % args)

        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="search-server",
            daemon=True,
        )
        self._thread.start()
        _LOG.info("serving on http://%s:%d", self.host, self.port)

    @property
    def host(self) -> str:
        if self._httpd is not None:
            return self._httpd.server_address[0]
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral port 0 after start)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self.config.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop serving and join the server thread (idempotent).

        The engine is *not* closed — the caller that built it owns it.
        """
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "SearchServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
