"""Per-query audit / slow-query event log (JSONL).

A :class:`QueryEventLog` receives one event dict per query evaluation
from the engines and appends the ones that pass its gates to a JSONL
sink.  Two gates compose:

* **sampling** — ``sample_every=N`` keeps every N-th query (counted
  per log, deterministically, so tests and replay are stable); 1 keeps
  everything, 0 keeps nothing by sampling;
* **slow-query threshold** — a query whose ``total_seconds`` is at or
  above ``slow_seconds`` is *always* logged (tagged ``"slow": true``),
  regardless of sampling.

Every event carries the query identity, an options digest (so mixed
workloads can be grouped by engine configuration), phase timings,
candidate/hit counts, corruption-skip counts, and the outcome
(``"ok"`` / ``"partial"`` / ``"fallback"`` / ``"error"``), the shard
count and, for evaluated queries, a per-shard timing breakdown.  Writing is locked, so worker threads of a
concurrent ``search_batch`` can share one log.

The log plugs into the :class:`~repro.instrumentation.instruments.
Instruments` facade (``Instruments(eventlog=...)``); engines emit via
``instruments.emit_event(...)`` which is a no-op when no log (or the
null facade) is attached.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from threading import Lock
from typing import IO, Callable

#: Format marker written into every event line.
SCHEMA = "repro.event/v1"


def options_digest(options: dict) -> str:
    """A short stable digest of an engine-options mapping.

    Engines call this once at construction; the digest groups eventlog
    lines by configuration without repeating the whole option set on
    every line.  Values are rendered with ``repr`` (schemes and
    dataclasses included), keys sorted.
    """
    rendered = json.dumps(
        {key: repr(value) for key, value in sorted(options.items())},
        sort_keys=True,
    )
    return hashlib.sha256(rendered.encode()).hexdigest()[:12]


class QueryEventLog:
    """Sampled, threshold-gated JSONL sink for query events.

    Args:
        sink: a path (opened append) or an open text file object
            (borrowed — not closed by :meth:`close`).
        sample_every: keep every N-th event; 1 logs everything, 0
            disables sampling entirely (only slow queries pass).
        slow_seconds: queries at or above this total latency are always
            logged and tagged ``slow``; ``None`` disables the gate.
        clock: timestamp source (unix seconds); injectable for tests.
    """

    def __init__(
        self,
        sink: str | Path | IO[str],
        sample_every: int = 1,
        slow_seconds: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if sample_every < 0:
            raise ValueError(
                f"sample_every must be >= 0, got {sample_every}"
            )
        self.sample_every = sample_every
        self.slow_seconds = slow_seconds
        self._clock = clock
        self._lock = Lock()
        self._seen = 0
        self._written = 0
        self._dropped = 0
        if hasattr(sink, "write"):
            self._file: IO[str] = sink  # type: ignore[assignment]
            self._owns_file = False
            self.path: Path | None = None
        else:
            self.path = Path(sink)
            self._file = self.path.open("a", encoding="utf-8")
            self._owns_file = True

    @property
    def seen(self) -> int:
        """Events offered to the log (written or not)."""
        return self._seen

    @property
    def written(self) -> int:
        """Events that passed the gates and were written."""
        return self._written

    @property
    def dropped(self) -> int:
        """Events lost to sink write failures (disk full, closed fd)."""
        return self._dropped

    def emit(self, event: dict) -> bool:
        """Offer one event; returns True when it was written.

        The event dict is augmented (not copied) with ``schema``, a
        wall-clock ``ts``, a per-log ``seq``, and ``slow`` when the
        threshold gate fired.
        """
        with self._lock:
            self._seen += 1
            slow = (
                self.slow_seconds is not None
                and float(event.get("total_seconds", 0.0))
                >= self.slow_seconds
            )
            sampled = (
                self.sample_every > 0
                and self._seen % self.sample_every == 0
            )
            if not (slow or sampled):
                return False
            event["schema"] = SCHEMA
            event["ts"] = self._clock()
            event["seq"] = self._seen
            if slow:
                event["slow"] = True
            try:
                self._file.write(json.dumps(event, sort_keys=True) + "\n")
                self._file.flush()
            except (OSError, ValueError):
                # Observability must never fail the query it observes:
                # a full disk or a closed sink costs this event line
                # (counted in ``dropped``), nothing more.  ValueError is
                # what a closed file object raises on write.
                self._dropped += 1
                return False
            self._written += 1
            return True

    def close(self) -> None:
        with self._lock:
            if self._owns_file and not self._file.closed:
                self._file.close()

    def __enter__(self) -> "QueryEventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict]:
    """Load every event line from a JSONL log (blank lines skipped)."""
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events
