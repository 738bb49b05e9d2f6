"""Per-query time budgets, threaded through the whole query path.

A :class:`Deadline` is a point on a monotonic clock after which a query
should stop doing new work and return whatever it has accumulated —
*partial, clearly-flagged results instead of a runaway query*.  The
engine accepts one per ``search`` call and checks it cooperatively:

* between chunks of coarse posting lists (lists not read before
  expiry contribute no evidence — see
  :meth:`~repro.index.builder.IndexReader.read_lists`);
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
from typing import Callable

from repro.errors import SearchError

__all__ = [
    "Deadline",
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.expires_at is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.4f}s)"


#: The shared never-expiring deadline every query defaults to.
NO_DEADLINE = Deadline()


def ensure_deadline(deadline: Deadline | None) -> Deadline:
    """``deadline`` if given, else the shared unbounded sentinel."""
    return deadline if deadline is not None else NO_DEADLINE
