"""A small in-memory span recorder.

The traced pass wraps every call into a layer's public function in a
span (name, start, end, parent, query id).  Spans stay in memory and are
written as Chrome trace-event JSON when the run ends; end-to-end metrics
are always measured with no recorder in the loop.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Timing:
    """What ``Recorder.span`` yields; ``ms`` is set when the block ends."""

    ms = 0.0


class Recorder:
    def __init__(self) -> None:
        #: (name, start seconds, end seconds, parent name, query id)
        self.spans: list[tuple[str, float, float, str | None, str | None]] = []
        self._stack: list[str] = []
        self._query: str | None = None

    @contextmanager
    def span(self, name: str, query: str | None = None):
        """Time the enclosed block.  A span given ``query`` sets the
        query id its children inherit."""
        parent = self._stack[-1] if self._stack else None
        outer_query = self._query
        if query is not None:
            self._query = query
        self._stack.append(name)
        timing = Timing()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing.ms = (end - start) * 1000.0
            self._stack.pop()
            self.spans.append((name, start, end, parent, self._query))
            self._query = outer_query

    def milliseconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [
            (end - start) * 1000.0
            for span_name, start, end, _, _ in self.spans
            if span_name == name
        ]

    def median_ms(self, name: str) -> float:
        return median(self.milliseconds(name))

    def write_chrome_trace(self, path: Path) -> None:
        """Open the file in ``chrome://tracing`` or Perfetto."""
        if not self.spans:
            return
        origin = min(start for _, start, _, _, _ in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"parent": parent, "query": query},
            }
            for name, start, end, parent, query in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
