"""The search service layer: a resilient HTTP/JSON server.

Everything below ``repro.serving`` treats the engines as backends:

* :mod:`repro.serving.admission` — bounded-concurrency admission
  control (max in-flight, bounded wait queue, load shedding);
* :mod:`repro.serving.server` — a long-lived threaded HTTP server over
  a :class:`~repro.database.Database` or engine, with per-request
  deadlines, degraded-shard annotations, and Prometheus metrics.

Load is driven from outside the package: ``e2e_bench/serve_http.py``
runs the open-loop soak the benchmark gates on.  See
``docs/SERVING.md`` for the endpoint and response contracts.
"""

from repro.serving.admission import AdmissionController
from repro.serving.server import SearchServer, ServerConfig

__all__ = [
    "AdmissionController",
    "SearchServer",
    "ServerConfig",
]
