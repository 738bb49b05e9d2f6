"""Regression tests: ``on_corruption="skip"`` must not crash scorers.

Under ``on_corruption="skip"`` a posting list that fails integrity
*after* its vocabulary row was read successfully reads as empty and is
quarantined.  The IDF scorer used to ``assert`` that could never
happen and crashed mid-query; it must skip the interval's evidence
like the count scorer does.
"""

import numpy as np
import pytest

from repro.errors import CorruptionError
from repro.index.builder import (
    READ_CHUNK,
    IndexParameters,
    IndexReader,
    build_index,
)
from repro.index.store import MemorySequenceSource
from repro.instrumentation import Instruments
from repro.search.coarse import CoarseRanker
from repro.search.deadline import Deadline
from repro.search.engine import PartitionedSearchEngine
from repro.sequences.record import Sequence


class FaultyIndex(IndexReader):
    """Delegating index whose posting blobs fail integrity on demand.

    Vocabulary lookups keep succeeding — the shape of real damage where
    the vocabulary section is intact but a posting blob is corrupt.
    Every interval id divisible by ``bad_every`` is damaged.
    """

    def __init__(self, inner: IndexReader, bad_every: int = 2) -> None:
        self._inner = inner
        self.params = inner.params
        self.collection = inner.collection
        self.bad_every = bad_every

    def _check(self, interval_id: int) -> None:
        if (
            interval_id % self.bad_every == 0
            and self._inner.lookup_entry(interval_id) is not None
        ):
            raise CorruptionError(
                "synthetic blob damage",
                interval_id=interval_id,
                section="postings",
            )

    def lookup_entry(self, interval_id):
        return self._inner.lookup_entry(interval_id)

    def decode_lists(self, resolved):
        for interval_id, df in zip(
            resolved.interval_ids.tolist(), resolved.dfs.tolist()
        ):
            if df:
                self._check(interval_id)
        return self._inner.decode_lists(resolved)

    def interval_ids(self):
        return self._inner.interval_ids()

    @property
    def vocabulary_size(self):
        return self._inner.vocabulary_size


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(907)
    records = [
        Sequence(f"cs{slot}", rng.integers(0, 4, 400, dtype=np.uint8))
        for slot in range(30)
    ]
    index = build_index(records, IndexParameters(interval_length=8))
    source = MemorySequenceSource(records)
    return records, index, source


class TestSkipPolicyScorers:
    def test_idf_scorer_survives_quarantined_blobs(self, setup):
        records, index, source = setup
        engine = PartitionedSearchEngine(
            FaultyIndex(index),
            source,
            coarse_scorer="idf",
            coarse_cutoff=10,
            on_corruption="skip",
        )
        report = engine.search(records[4].slice(100, 260), top_k=5)
        assert report.quarantined_intervals > 0
        # Half the evidence is gone, but the planted answer still wins.
        assert report.best().ordinal == 4

    def test_idf_scorer_survives_fully_quarantined_query(self, setup):
        records, index, source = setup
        engine = PartitionedSearchEngine(
            FaultyIndex(index, bad_every=1),
            source,
            coarse_scorer="idf",
            on_corruption="skip",
        )
        report = engine.search(records[4].slice(100, 260), top_k=5)
        assert report.hits == []
        assert report.quarantined_intervals > 0

    def test_count_scorer_matches_idf_quarantine_set(self, setup):
        """Both scorers must quarantine the same damaged intervals."""
        records, index, source = setup
        reports = {}
        for scorer in ("count", "idf"):
            engine = PartitionedSearchEngine(
                FaultyIndex(index),
                source,
                coarse_scorer=scorer,
                on_corruption="skip",
            )
            engine.search(records[4].slice(100, 260), top_k=5)
            reports[scorer] = engine.quarantined_intervals
        assert reports["count"] == reports["idf"]

    def test_quarantine_counter_matches_engine_state(self, setup):
        records, index, source = setup
        instruments = Instruments()
        engine = PartitionedSearchEngine(
            FaultyIndex(index),
            source,
            coarse_scorer="idf",
            on_corruption="skip",
            instruments=instruments,
        )
        engine.search(records[4].slice(100, 260), top_k=5)
        engine.search(records[9].slice(50, 210), top_k=5)
        assert (
            instruments.metrics.counter_value("index.quarantined_intervals")
            == engine.quarantined_intervals
        )


class TickingFaultyIndex(FaultyIndex):
    """:class:`FaultyIndex` whose every vocabulary lookup advances a
    fake clock by one tick, so a deadline of ``FIRST_CHUNK_BUDGET``
    ticks expires once the first chunk of lists has been resolved."""

    def __init__(self, inner, clock):
        super().__init__(inner)
        self.clock = clock

    def lookup_entry(self, interval_id):
        self.clock.advance(1.0)
        return super().lookup_entry(interval_id)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


#: Expires after READ_CHUNK lookup ticks: the first chunk is read, no
#: more.
FIRST_CHUNK_BUDGET = READ_CHUNK - 0.5

SCORER_MODES = [
    ("count", "full"),
    ("idf", "full"),
    ("count", "frames"),
]


def _healthy_index(index, interval_ids, bad_every=2):
    """The index restricted to ``interval_ids`` minus damaged lists:
    exactly the evidence a skipping search may use."""
    kept = {}
    for interval in interval_ids:
        entry = index.lookup_entry(interval)
        if entry is not None and interval % bad_every:
            kept[interval] = entry
    return index.replace_vocabulary(kept)


def _damaged(index, interval_ids, bad_every=2):
    return {
        interval
        for interval in interval_ids
        if interval % bad_every == 0
        and index.lookup_entry(interval) is not None
    }


def _ranking(candidates):
    return [(c.ordinal, c.coarse_score) for c in candidates]


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "first_chunk"])
@pytest.mark.parametrize(
    "scorer, fine_mode", SCORER_MODES, ids=[f"{s}-{m}" for s, m in SCORER_MODES]
)
def test_skip_policy_under_deadline(setup, scorer, fine_mode, bounded):
    """Quarantine and a bounded deadline together: the ranking uses
    exactly the healthy lists read before expiry, every damaged list
    read is quarantined once, and the report says the deadline hit."""
    records, index, source = setup
    query = records[4].slice(100, 260)
    ids = CoarseRanker(index).query_intervals(query.codes)[0].tolist()
    assert len(ids) > 2 * READ_CHUNK
    reached = ids[:READ_CHUNK] if bounded else ids
    options = dict(
        coarse_scorer=scorer, fine_mode=fine_mode, coarse_cutoff=10
    )
    expected = PartitionedSearchEngine(
        _healthy_index(index, reached), source, **options
    ).coarse_rank(query.codes)
    assert expected

    def engine_and_deadline():
        clock = FakeClock()
        engine = PartitionedSearchEngine(
            TickingFaultyIndex(index, clock),
            source,
            on_corruption="skip",
            **options,
        )
        deadline = (
            Deadline.after(FIRST_CHUNK_BUDGET, clock) if bounded else None
        )
        return engine, deadline

    engine, deadline = engine_and_deadline()
    ranked = engine.coarse_rank(query.codes, deadline=deadline)
    assert _ranking(ranked) == _ranking(expected)
    assert engine.quarantined_intervals == len(_damaged(index, reached))

    engine, deadline = engine_and_deadline()
    report = engine.search(query, top_k=5, deadline=deadline)
    assert report.deadline_expired == bounded
    assert report.quarantined_intervals == len(_damaged(index, reached))
