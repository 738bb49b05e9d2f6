"""A lightweight metrics registry: counters, gauges, histograms.

The query path reports what it does — postings fetched, cache hits,
per-phase latencies — through a :class:`MetricsRegistry`.  Components
never hold a registry directly; they hold an
:class:`~repro.instrumentation.instruments.Instruments` facade whose
default is a shared no-op, so an uninstrumented engine pays nothing
beyond an attribute load and an empty method call per event.

Histograms use fixed log-scale buckets (:data:`LOG_BUCKET_BOUNDS`, four
per decade from 1e-7 to 1e3) so observing is O(log buckets) with no
per-observation allocation, and percentiles are read back by
interpolating within the matching bucket — accurate to well under a
bucket width (~78%), which is plenty for latency reporting.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from threading import Lock

#: Histogram bucket upper bounds: four per decade, 1e-7 .. 1e3 (seconds
#: scale covers 100 ns to ~17 min; values outside land in the edge
#: buckets).  Shared by every histogram so snapshots line up.
LOG_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-28, 13)
)


class Counter:
    """A monotonically increasing integer.

    Mutation is locked: worker threads driving a concurrent
    ``search_batch`` all bump the same counters, and an unlocked
    read-modify-write would silently lose increments.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = Lock()

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time float (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """A log-scale-bucketed distribution of non-negative floats.

    ``observe`` locks the whole multi-field update so concurrent
    observers can never leave ``count``/``total``/bucket tallies
    disagreeing with each other.
    """

    __slots__ = (
        "name", "buckets", "count", "total", "minimum", "maximum", "_lock"
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets = [0] * (len(LOG_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0
        self._lock = Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.buckets[bisect_left(LOG_BUCKET_BOUNDS, value)] += 1
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]).

        The rank's bucket is narrowed to the observed min/max, then the
        answer is interpolated log-linearly by the rank's position
        among that bucket's observations — so percentiles sharing a
        bucket still differ, rise with ``q``, and stay within one
        bucket ratio of the exact sample percentile.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * q / 100.0))
        seen = 0
        for slot, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= rank:
                lower = max(
                    LOG_BUCKET_BOUNDS[slot - 1] if slot > 0 else 0.0,
                    self.minimum,
                )
                upper = (
                    min(LOG_BUCKET_BOUNDS[slot], self.maximum)
                    if slot < len(LOG_BUCKET_BOUNDS)
                    else self.maximum
                )
                fraction = (rank - (seen - bucket_count)) / bucket_count
                if lower <= 0.0:
                    return upper * fraction
                return lower * (upper / lower) ** fraction
        return self.maximum

    def summary(self) -> dict[str, float]:
        """count / mean / min / max / p50 / p90 / p99 / total."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use.

    Thread safety: instrument *creation* is locked, and every
    instrument locks its own mutation, so concurrent workers (threaded
    ``search_batch``) never lose updates.  Reads take no lock — a
    snapshot racing a writer sees a consistent per-instrument state at
    worst one observation behind.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = Lock()

    # -- instrument accessors -------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name)
                )
        return instrument

    # -- one-call update conveniences -----------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counter(name).add(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reading ---------------------------------------------------------

    def counter_value(self, name: str) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> dict[str, dict]:
        """All instruments as one JSON-ready dict."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (a fresh measurement window)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every update is a no-op, every read empty.

    A single shared instance (:data:`NULL_METRICS`) backs every
    uninstrumented component, so the disabled path allocates nothing.
    """

    enabled = False

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> Counter:
        # Hand out throwaway instruments so misuse cannot accumulate
        # state on the shared singleton.
        return Counter(name)

    def gauge(self, name: str) -> Gauge:
        return Gauge(name)

    def histogram(self, name: str) -> Histogram:
        return Histogram(name)


#: Shared disabled registry.
NULL_METRICS = NullMetricsRegistry()
