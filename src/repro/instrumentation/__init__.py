"""Instrumentation: query-path observability and fault injection.

Two halves live here:

* **observability** — the metrics registry
  (:mod:`repro.instrumentation.metrics`), the span tracer
  (:mod:`repro.instrumentation.tracing`), the :class:`Instruments`
  facade the engines hold, the query event log
  (:mod:`repro.instrumentation.eventlog`) and the exporters
  (:mod:`repro.instrumentation.export`);
* **fault injection** — deterministic corruption and crash simulation
  for durability tests (:mod:`repro.instrumentation.faults`).
"""

from repro.instrumentation.eventlog import (
    QueryEventLog,
    options_digest,
    read_events,
)
from repro.instrumentation.export import (
    format_span_tree,
    metrics_json,
    parse_prometheus_text,
    prometheus_text,
    trace_event_json,
    trace_events,
    write_metrics,
    write_trace,
)
from repro.instrumentation.faults import (
    FaultReport,
    SimulatedCrash,
    crash_during_replace,
    crash_on_fsync,
    flip_bit,
    flip_byte,
    index_sections,
    store_sections,
    truncate_at,
    zero_page,
)
from repro.instrumentation.instruments import (
    NULL_INSTRUMENTS,
    Instruments,
    NullInstruments,
    coalesce,
)
from repro.instrumentation.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.instrumentation.tracing import NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "FaultReport",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricsRegistry",
    "NULL_INSTRUMENTS",
    "NullInstruments",
    "NullMetricsRegistry",
    "NullTracer",
    "QueryEventLog",
    "SimulatedCrash",
    "Span",
    "Tracer",
    "coalesce",
    "crash_during_replace",
    "crash_on_fsync",
    "flip_bit",
    "flip_byte",
    "format_span_tree",
    "index_sections",
    "metrics_json",
    "options_digest",
    "parse_prometheus_text",
    "prometheus_text",
    "read_events",
    "store_sections",
    "trace_event_json",
    "trace_events",
    "write_metrics",
    "write_trace",
    "zero_page",
]
