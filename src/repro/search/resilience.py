"""Fault-tolerance primitives for fan-out search: retry + breaker.

The engine treats each shard as an independent, unreliable
backend.  Three cooperating pieces make a query survive a misbehaving
shard instead of failing outright:

* :class:`RetryPolicy` — jittered exponential backoff for transient
  per-shard failures (a flaky read, a timed-out attempt);
* :class:`CircuitBreaker` — one per shard; after
  ``failure_threshold`` consecutive failures the breaker *opens* and
  the shard is skipped outright (no latency wasted on a known-bad
  shard) until ``reset_seconds`` later, when a single half-open probe
  is admitted — success closes the breaker, failure re-opens it;
* :class:`ShardResilience` — the bundle of knobs an engine or server
  is configured with (per-attempt timeout, retry policy, breaker
  thresholds).

A query against an engine with resilience configured degrades to the
surviving shards: the report's ``shards_degraded`` names the shards
whose evidence is missing, and the query never sees the underlying
shard exception.  Clocks and RNGs are injectable so every transition
is deterministic under test.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from threading import Lock
from typing import Callable

from repro.errors import ReproError, SearchError

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "ShardResilience",
    "ShardTimeout",
    "ShardUnavailable",
]


class ShardTimeout(ReproError, TimeoutError):
    """A single per-shard attempt exceeded its wall-clock budget."""


class ShardUnavailable(SearchError):
    """A shard could not serve this query (breaker open or retries
    exhausted); the engine degrades to the surviving shards.

    Attributes:
        shard: the shard slot that was dropped.
        reason: short machine-readable cause (``"breaker_open"``,
            ``"retries_exhausted"``, ``"deadline"``).
    """

    def __init__(self, shard: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.shard = shard
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for per-shard retries.

    Args:
        max_attempts: total tries per shard call (1 = no retry).
        base_delay: backoff before the first retry, in seconds.
        multiplier: growth factor per further retry.
        max_delay: backoff ceiling, in seconds.
        jitter: fractional +- randomisation of each delay (0.5 means a
            delay is scaled uniformly within [0.5x, 1.5x]); 0 disables
            jitter.  Jitter decorrelates retry storms when many
            concurrent queries hit the same failing shard.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SearchError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise SearchError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.multiplier < 1.0:
            raise SearchError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay < 0:
            raise SearchError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise SearchError(
                f"jitter must lie in [0, 1], got {self.jitter}"
            )

    def delay(self, retries: int, rng: random.Random | None = None) -> float:
        """Backoff before the ``retries``-th retry (1-based), jittered.

        Raises:
            SearchError: if ``retries`` < 1.
        """
        if retries < 1:
            raise SearchError(f"retries must be >= 1, got {retries}")
        raw = min(
            self.max_delay, self.base_delay * self.multiplier ** (retries - 1)
        )
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


class CircuitBreaker:
    """A three-state (closed / open / half-open) failure gate.

    Closed admits every call; ``failure_threshold`` consecutive
    recorded failures open it.  Open rejects every call until
    ``reset_seconds`` have elapsed, after which exactly one half-open
    probe is admitted: :meth:`record_success` closes the breaker,
    :meth:`record_failure` re-opens it for another full reset window.
    All transitions are lock-protected, so concurrent server requests
    share one breaker per shard safely.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise SearchError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_seconds < 0:
            raise SearchError(
                f"reset_seconds must be >= 0, got {reset_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: float | None = None

    @property
    def state(self) -> str:
        """Current state (an open breaker past its reset window reports
        ``half_open``, since the next :meth:`allow` would probe)."""
        with self._lock:
            if self._state == self.OPEN and self._reset_elapsed():
                return self.HALF_OPEN
            return self._state

    @property
    def failures(self) -> int:
        """Consecutive failures recorded since the last success."""
        with self._lock:
            return self._failures

    def _reset_elapsed(self) -> bool:
        return (
            self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_seconds
        )

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        Open-to-half-open transition happens here: the first ``allow``
        after the reset window admits one probe; further calls are
        rejected until that probe's outcome is recorded.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN and self._reset_elapsed():
                self._state = self.HALF_OPEN
                return True
            return False

    def record_success(self) -> None:
        """A call succeeded: close the breaker and clear the count."""
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        """A call failed: count it; trip when the threshold is hit or
        the half-open probe failed."""
        with self._lock:
            self._failures += 1
            if (
                self._state == self.HALF_OPEN
                or self._failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()


@dataclass(frozen=True)
class ShardResilience:
    """Per-shard fault-tolerance configuration for a fan-out engine.

    Args:
        shard_timeout: wall-clock budget per shard *attempt*, in
            seconds; an attempt past it counts as a failure (retried,
            then breaker-counted).  ``None`` disables attempt timeouts
            (failures are then only exceptions the shard raises).
        retry: backoff policy for transient per-shard failures.
        breaker_failures: consecutive failures that open a shard's
            circuit breaker.
        breaker_reset_seconds: how long an open breaker rejects calls
            before admitting a half-open probe.
        seed: RNG seed for backoff jitter (``None`` = nondeterministic).
    """

    shard_timeout: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failures: int = 5
    breaker_reset_seconds: float = 30.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise SearchError(
                f"shard_timeout must be > 0, got {self.shard_timeout}"
            )
        if self.breaker_failures < 1:
            raise SearchError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_reset_seconds < 0:
            raise SearchError(
                "breaker_reset_seconds must be >= 0, got "
                f"{self.breaker_reset_seconds}"
            )

    def make_breaker(
        self, clock: Callable[[], float] = time.monotonic
    ) -> CircuitBreaker:
        """A fresh breaker with this configuration's thresholds."""
        return CircuitBreaker(
            failure_threshold=self.breaker_failures,
            reset_seconds=self.breaker_reset_seconds,
            clock=clock,
        )
