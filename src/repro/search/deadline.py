"""Per-query time budgets, threaded through the whole query path.

A :class:`Deadline` is a point on a monotonic clock after which a query
should stop doing new work and return whatever it has accumulated —
*partial, clearly-flagged results instead of a runaway query*.  The
engine accepts one per ``search`` call and checks it cooperatively:

* between coarse intervals (posting-list fetches stop contributing
  evidence once expired — see :class:`DeadlineIndexView`);
* between per-shard fan-out steps;
* between fine-phase alignment chunks.

A report produced under an expired deadline carries
``deadline_expired=True`` and whatever hits the completed work ranked;
an expired deadline never raises.  The shared :data:`NO_DEADLINE`
sentinel never expires and costs one attribute check per gate, so the
unbudgeted path stays effectively free.

The clock is injectable so tests can drive expiry deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

import numpy as np

from repro.errors import SearchError

__all__ = [
    "Deadline",
    "DeadlineIndexView",
    "NO_DEADLINE",
    "ensure_deadline",
]


class Deadline:
    """A monotonic-clock expiry point (``None`` = unbounded).

    Args:
        expires_at: absolute monotonic timestamp after which the
            deadline is expired; ``None`` never expires.
        clock: timestamp source; injectable for deterministic tests.
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(
        self,
        expires_at: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.expires_at = expires_at
        self._clock = clock

    @classmethod
    def after(
        cls,
        seconds: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``seconds`` from now (``None`` = unbounded).

        Raises:
            SearchError: if ``seconds`` is negative.
        """
        if seconds is None:
            return NO_DEADLINE
        if seconds < 0:
            raise SearchError(f"deadline must be >= 0 seconds, got {seconds}")
        return cls(clock() + seconds, clock)

    def expired(self) -> bool:
        """True once the clock has passed the expiry point."""
        return self.expires_at is not None and self._clock() >= self.expires_at

    def remaining(self) -> float | None:
        """Seconds of budget left (clamped at 0.0); ``None`` = unbounded."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - self._clock())

    @property
    def bounded(self) -> bool:
        """True when this deadline can actually expire."""
        return self.expires_at is not None

    def tightened(self, seconds: float | None) -> "Deadline":
        """The tighter of this deadline and one ``seconds`` from now.

        Used to compose a per-shard attempt timeout with the query's
        overall budget.
        """
        if seconds is None:
            return self
        candidate = Deadline.after(seconds, self._clock)
        if self.expires_at is None:
            return candidate
        if candidate.expires_at >= self.expires_at:
            return self
        return candidate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.expires_at is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.4f}s)"


#: The shared never-expiring deadline every query defaults to.
NO_DEADLINE = Deadline()


def ensure_deadline(deadline: Deadline | None) -> Deadline:
    """``deadline`` if given, else the shared unbounded sentinel."""
    return deadline if deadline is not None else NO_DEADLINE


class DeadlineIndexView:
    """Index view that stops yielding evidence once a deadline expires.

    Wrapping the reader (instead of threading the deadline into every
    scorer) keeps the coarse accumulators untouched: after expiry each
    remaining interval fetch returns "nothing here" (``None`` entry /
    ``None`` decode / empty postings), so the scorer loop finishes in
    microseconds and the scores accumulated *before* expiry become the
    partial coarse ranking.  Construction is one object per query —
    allocated only when the deadline is bounded.
    """

    __slots__ = ("_inner", "_deadline", "params", "collection")

    def __init__(self, inner, deadline: Deadline) -> None:
        self._inner = inner
        self._deadline = deadline
        self.params = inner.params
        self.collection = inner.collection

    #: Intervals decoded per expiry check inside a batched fetch —
    #: small enough to bound overshoot past the deadline, large enough
    #: to keep the vectorised batch decode effective.
    BATCH_CHUNK = 16

    def lookup_entry(self, interval_id: int):
        if self._deadline.expired():
            return None
        return self._inner.lookup_entry(interval_id)

    def docs_counts(self, interval_id: int, entry=None):
        if self._deadline.expired():
            return None
        return self._inner.docs_counts(interval_id, entry)

    def docs_counts_batch(self, interval_ids) -> list:
        """Batched section-A decode, re-checking the deadline between
        chunks: once expired, the remaining intervals yield ``None`` —
        the batched analogue of "no evidence after expiry"."""
        results: list = []
        total = len(interval_ids)
        inner_batch = getattr(self._inner, "docs_counts_batch", None)
        for start in range(0, total, self.BATCH_CHUNK):
            chunk = interval_ids[start : start + self.BATCH_CHUNK]
            if self._deadline.expired():
                results.extend([None] * (total - start))
                break
            if inner_batch is not None:
                results.extend(inner_batch(chunk))
                continue
            # Duck-typed inner reader without the batch protocol.
            for interval_id in chunk:
                entry = self._inner.lookup_entry(interval_id)
                if entry is None:
                    results.append(None)
                    continue
                decoded = self._inner.docs_counts(interval_id)
                results.append(
                    None if decoded is None else (entry, *decoded)
                )
        return results

    def docs_counts_flat(self, interval_ids):
        """Flat section-A decode with the same chunked expiry rule as
        :meth:`docs_counts_batch`: intervals past expiry report length
        0 and contribute no entries — "no evidence after expiry" in the
        flat layout."""
        total = len(interval_ids)
        lens = np.zeros(total, dtype=np.int64)
        docs_parts: list[np.ndarray] = []
        counts_parts: list[np.ndarray] = []
        inner_flat = getattr(self._inner, "docs_counts_flat", None)
        for start in range(0, total, self.BATCH_CHUNK):
            if self._deadline.expired():
                break
            chunk = interval_ids[start : start + self.BATCH_CHUNK]
            if inner_flat is not None:
                chunk_lens, chunk_docs, chunk_counts = inner_flat(chunk)
                lens[start : start + len(chunk)] = chunk_lens
                docs_parts.append(chunk_docs)
                counts_parts.append(chunk_counts)
                continue
            # Duck-typed inner reader without the flat protocol.
            for offset, interval_id in enumerate(chunk):
                entry = self._inner.lookup_entry(interval_id)
                if entry is None:
                    continue
                decoded = self._inner.docs_counts(interval_id)
                if decoded is None:
                    continue
                lens[start + offset] = decoded[0].shape[0]
                docs_parts.append(decoded[0])
                counts_parts.append(decoded[1])
        empty = np.empty(0, dtype=np.int64)
        return (
            lens,
            np.concatenate(docs_parts) if docs_parts else empty,
            np.concatenate(counts_parts) if counts_parts else empty,
        )

    def postings(self, interval_id: int, entry=None) -> list:
        if self._deadline.expired():
            return []
        return self._inner.postings(interval_id, entry)

    def postings_batch(self, interval_ids) -> list:
        """Batched full decode with the same chunked expiry rule as
        :meth:`docs_counts_batch` (expired intervals yield ``None``)."""
        results: list = []
        total = len(interval_ids)
        inner_batch = getattr(self._inner, "postings_batch", None)
        for start in range(0, total, self.BATCH_CHUNK):
            chunk = interval_ids[start : start + self.BATCH_CHUNK]
            if self._deadline.expired():
                results.extend([None] * (total - start))
                break
            if inner_batch is not None:
                results.extend(inner_batch(chunk))
                continue
            for interval_id in chunk:
                entry = self._inner.lookup_entry(interval_id)
                results.append(
                    None if entry is None
                    else self._inner.postings(interval_id)
                )
        return results

    def interval_ids(self) -> Iterator[int]:
        return self._inner.interval_ids()

    @property
    def vocabulary_size(self) -> int:
        return self._inner.vocabulary_size
