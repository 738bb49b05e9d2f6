"""Index stopping: discarding the most frequent intervals.

High-frequency intervals (poly-A runs, low-complexity repeats) are the
bulk of the pointer volume but carry little discriminating power, so —
exactly as stop-words are dropped from text indexes — the paper's
system can discard them.  E6 measures the size/time/recall trade-off
this buys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IndexParameterError
from repro.index.builder import InvertedIndex


@dataclass(frozen=True)
class StoppingReport:
    """What a stopping pass removed.

    Attributes:
        dropped_intervals: vocabulary rows removed.
        dropped_pointers: sequence pointers removed with them.
        dropped_bytes: compressed posting bytes removed.
        threshold_cf: collection frequency at/above which rows were
            dropped (0 when nothing was dropped).
    """

    dropped_intervals: int
    dropped_pointers: int
    dropped_bytes: int
    threshold_cf: int


def stop_most_frequent(
    index: InvertedIndex, fraction: float
) -> tuple[InvertedIndex, StoppingReport]:
    """Drop the top ``fraction`` of vocabulary rows by collection frequency.

    Args:
        index: the index to stop (left untouched; a new one is returned).
        fraction: fraction of *vocabulary entries* to drop, 0 <= f < 1.

    Returns:
        The stopped index and a report of what was removed.

    Raises:
        IndexParameterError: if ``fraction`` is out of range.
    """
    if not 0.0 <= fraction < 1.0:
        raise IndexParameterError(
            f"stopping fraction must lie in [0, 1), got {fraction}"
        )
    entries = list(index.entries())
    drop_count = int(len(entries) * fraction)
    if drop_count == 0:
        return (
            index.replace_vocabulary(
                {entry.interval_id: entry for entry in entries}
            ),
            StoppingReport(0, 0, 0, 0),
        )
    by_frequency = sorted(entries, key=lambda entry: entry.cf, reverse=True)
    dropped = by_frequency[:drop_count]
    kept = by_frequency[drop_count:]
    report = StoppingReport(
        dropped_intervals=len(dropped),
        dropped_pointers=sum(entry.df for entry in dropped),
        dropped_bytes=sum(len(entry.data) for entry in dropped),
        threshold_cf=min(entry.cf for entry in dropped),
    )
    vocabulary = {entry.interval_id: entry for entry in kept}
    return index.replace_vocabulary(vocabulary), report

