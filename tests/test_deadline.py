"""Per-query deadlines: units + partial-result behaviour end to end.

The contract under test: an expired deadline never raises — the engine
returns whatever ranking the work completed before expiry produced,
with ``deadline_expired=True`` on the report.  A generous deadline
changes nothing (score identity with the unbudgeted path).
"""

import numpy as np
import pytest

from repro.coarse_backends import signature
from repro.coarse_backends.signature import (
    SignatureIndex,
    SignatureRanker,
    write_signature,
)
from repro.errors import SearchError
from repro.index.builder import READ_CHUNK, IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation.instruments import Instruments
from repro.search.deadline import (
    NO_DEADLINE,
    Deadline,
    ensure_deadline,
)
from repro.search.engine import DEADLINE_FINE_CHUNK, PartitionedSearchEngine
from repro.search.results import fine_order
from repro.sequences.record import Sequence


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline()
        assert not deadline.bounded
        assert not deadline.expired()
        assert deadline.remaining() is None

    def test_after_none_is_shared_sentinel(self):
        assert Deadline.after(None) is NO_DEADLINE

    def test_after_negative_raises(self):
        with pytest.raises(SearchError):
            Deadline.after(-0.5)

    def test_expiry_follows_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock)
        assert deadline.bounded
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert not deadline.expired()
        clock.advance(0.5)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        clock.advance(10.0)
        assert deadline.expired()

    def test_zero_budget_expires_immediately(self):
        clock = FakeClock()
        assert Deadline.after(0.0, clock).expired()

    def test_ensure_deadline(self):
        assert ensure_deadline(None) is NO_DEADLINE
        deadline = Deadline.after(1.0, FakeClock())
        assert ensure_deadline(deadline) is deadline


class TestDeadlineIndexView:
    """The index as a deadline sees it: ``read_lists`` under a bounded
    deadline reads nothing once it expires."""

    @pytest.fixture()
    def index(self, tiny_collection):
        return build_index(
            tiny_collection, IndexParameters(interval_length=6)
        )

    def test_passthrough_before_expiry(self, index):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock)
        ids = list(index.interval_ids())[:40]
        budgeted = index.read_lists(ids, deadline=deadline)
        free = index.read_lists(ids)
        assert len(budgeted) == len(free) == 3
        for got, want in zip(budgeted, free):
            assert np.array_equal(got, want)
        assert budgeted[0].all()

    def test_empty_evidence_after_expiry(self, index):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock)
        ids = list(index.interval_ids())[:40]
        clock.advance(2.0)
        lens, docs, counts = index.read_lists(ids, deadline=deadline)
        assert lens.tolist() == [0] * len(ids)
        assert docs.size == counts.size == 0

    def test_expiry_between_chunks(self, index):
        """Lists are read in chunks of READ_CHUNK with one expiry check
        before each: a deadline passing mid-chunk still finishes that
        chunk, and nothing after it is read."""
        clock = FakeClock()
        deadline = Deadline.after(READ_CHUNK - 0.5, clock)
        original = index.lookup_entry

        def ticking_lookup(interval_id):
            clock.advance(1.0)
            return original(interval_id)

        index.lookup_entry = ticking_lookup
        ids = list(index.interval_ids())[: 3 * READ_CHUNK]
        assert len(ids) > READ_CHUNK
        lens, _, _ = index.read_lists(ids, deadline=deadline)
        assert lens[:READ_CHUNK].all()
        assert not lens[READ_CHUNK:].any()


@pytest.fixture(scope="module")
def shard_pairs(small_workload):
    """Three (index, source) shards over the small-workload collection."""
    collection, _ = small_workload
    records = list(collection.sequences)
    params = IndexParameters(interval_length=8)
    pairs = []
    for slot in range(3):
        part = records[slot::3]
        pairs.append(
            (build_index(part, params), MemorySequenceSource(part))
        )
    return pairs


@pytest.fixture(scope="module")
def engine_pair(small_workload, small_index, small_source, shard_pairs):
    """One partitioned engine and one 3-shard engine over the same data."""
    _, queries = small_workload
    single = PartitionedSearchEngine(small_index, small_source)
    sharded = PartitionedSearchEngine.over_shards(shard_pairs)
    return single, sharded, queries


@pytest.mark.parametrize("which", ["single", "sharded"])
def test_expired_deadline_returns_partial_not_raise(engine_pair, which):
    single, sharded, queries = engine_pair
    engine = single if which == "single" else sharded
    clock = FakeClock()
    deadline = Deadline.after(0.0, clock)
    report = engine.search(queries[0].query, top_k=5, deadline=deadline)
    assert report.deadline_expired
    assert report.partial
    # Expired before any work: nothing could be ranked.
    assert report.hits == []


@pytest.mark.parametrize("which", ["single", "sharded"])
def test_generous_deadline_matches_unbudgeted(engine_pair, which):
    single, sharded, queries = engine_pair
    engine = single if which == "single" else sharded
    for case in queries[:3]:
        free = engine.search(case.query, top_k=8)
        budgeted = engine.search(
            case.query, top_k=8, deadline=Deadline.after(60.0)
        )
        assert not budgeted.deadline_expired
        assert not budgeted.partial
        assert [h.ordinal for h in budgeted.hits] == [
            h.ordinal for h in free.hits
        ]
        assert [h.score for h in budgeted.hits] == [
            h.score for h in free.hits
        ]


def test_mid_query_expiry_yields_prefix_partial(engine_pair):
    """Expire between phases: hits (if any) come from completed work and
    the report is flagged; no exception regardless of where the clock
    lands."""
    single, _, queries = engine_pair
    query = queries[0].query
    full = single.search(query, top_k=10)
    # A clock that jumps past the expiry point after a fixed number of
    # reads lands expiry at different pipeline stages.
    for reads_before_expiry in (1, 3, 10, 50, 200):
        class CountingClock:
            def __init__(self, budget):
                self.calls = 0
                self.budget = budget

            def __call__(self):
                self.calls += 1
                return 0.0 if self.calls <= self.budget else 100.0

        clock = CountingClock(reads_before_expiry)
        deadline = Deadline.after(1.0, clock)
        report = single.search(query, top_k=10, deadline=deadline)
        # Partial hits are genuine scored alignments, in sorted order.
        scores = [h.score for h in report.hits]
        assert scores == sorted(scores, reverse=True)
        if report.deadline_expired:
            assert report.partial
            full_ordinals = {h.ordinal for h in full.hits}
            for hit in report.hits:
                assert hit.ordinal in full_ordinals or hit.score > 0
        else:
            # The query finished before it burned through the clock
            # budget: results must be the unbudgeted ones.
            assert [h.ordinal for h in report.hits] == [
                h.ordinal for h in full.hits
            ]


class TickingSource(MemorySequenceSource):
    """A store whose every record fetch advances a fake clock 1 s."""

    def __init__(self, records, clock):
        super().__init__(records)
        self.clock = clock

    def codes(self, ordinal):
        self.clock.advance(1.0)
        return super().codes(ordinal)


def test_expiry_between_merged_chunks_yields_ranked_partial(
    small_workload, shard_pairs
):
    """The deadline expires while the first merged chunk is fetched:
    that chunk, drawn from several shards, is scanned as one image and
    ranked; later chunks are dropped and never counted as examined."""
    collection, queries = small_workload
    parts = [list(collection.sequences)[slot::3] for slot in range(3)]
    clock = FakeClock()
    engine = PartitionedSearchEngine.over_shards(
        [
            (index, TickingSource(part, clock))
            for (index, _), part in zip(shard_pairs, parts)
        ]
    )
    query = queries[0].query
    full = PartitionedSearchEngine.over_shards(shard_pairs).search(
        query, top_k=200
    )
    assert full.candidates_examined > DEADLINE_FINE_CHUNK
    report = engine.search(
        query, top_k=200, deadline=Deadline.after(0.5, clock)
    )
    assert report.deadline_expired
    assert report.partial
    assert report.candidates_examined == DEADLINE_FINE_CHUNK
    assert report.hits
    assert report.hits == sorted(report.hits, key=fine_order)
    assert set(report.hits) <= set(full.hits)
    slot_of = {
        record.identifier: slot
        for slot, part in enumerate(parts)
        for record in part
    }
    assert len({slot_of[hit.identifier] for hit in report.hits}) > 1


def test_signature_scan_expires_between_steps(tmp_path, monkeypatch):
    """The signature scan checks the deadline between steps of whole
    blocks: a deadline passing during the first step keeps that step's
    blocks and scores nothing after them, and the engine reports the
    expiry."""
    generator = np.random.default_rng(9)
    records = [
        Sequence(f"s{slot}", generator.integers(0, 4, 120, dtype=np.uint8))
        for slot in range(24)
    ]
    path = tmp_path / "signatures.rpsg"
    write_signature(
        records, path, IndexParameters(interval_length=8),
        {"docs_per_block": 4},
    )
    monkeypatch.setattr(signature, "SCAN_WORDS", 2)
    with SignatureIndex(path) as index:
        assert index.scan_steps == ((0, 2), (2, 4), (4, 6))
        query = records[1].codes[10:110]
        full = SignatureRanker(index).scores(query)
        clock = FakeClock()
        scan = index.membership_counts

        def ticking(*args):
            clock.advance(1.0)
            return scan(*args)

        monkeypatch.setattr(index, "membership_counts", ticking)
        instruments = Instruments()
        ranker = SignatureRanker(index)
        ranker.set_instruments(instruments)
        partial = ranker.scores(query, deadline=Deadline.after(0.5, clock))
        assert full[:8].any() and full[8:].any()
        assert np.array_equal(partial[:8], full[:8])  # blocks 0 and 1
        assert not partial[8:].any()
        assert instruments.metrics.snapshot()["counters"][
            "signature.blocks_scanned"
        ] == 2

        engine = PartitionedSearchEngine(index, MemorySequenceSource(records))
        report = engine.search(
            Sequence("q", query), top_k=5, deadline=Deadline.after(0.5, clock)
        )
        assert report.deadline_expired
        assert report.partial


def test_both_strands_skips_reverse_after_expiry(engine_pair):
    single, _, queries = engine_pair
    engine = PartitionedSearchEngine(*single.shards[0], both_strands=True)
    clock = FakeClock()
    report = engine.search(
        queries[0].query, top_k=5, deadline=Deadline.after(0.0, clock)
    )
    assert report.deadline_expired
    assert report.hits == []


def test_search_batch_threads_deadline(engine_pair):
    single, _, queries = engine_pair
    clock = FakeClock()
    deadline = Deadline.after(0.0, clock)
    reports = single.search_batch(
        [c.query for c in queries[:3]], top_k=5, deadline=deadline
    )
    assert len(reports) == 3
    assert all(r.deadline_expired for r in reports)


def test_sharded_deadline_event_annotations(
    engine_pair, shard_pairs, tmp_path
):
    from repro.instrumentation.eventlog import QueryEventLog, read_events
    from repro.instrumentation.instruments import Instruments

    _, _, queries = engine_pair
    log_path = tmp_path / "events.jsonl"
    with QueryEventLog(log_path) as eventlog:
        instruments = Instruments(eventlog=eventlog)
        engine = PartitionedSearchEngine.over_shards(shard_pairs, instruments=instruments)
        engine.search(
            queries[0].query, top_k=5, deadline=Deadline.after(0.0, FakeClock())
        )
    events = read_events(log_path)
    assert events, "expected one query event"
    event = events[-1]
    assert event["outcome"] == "partial"
    assert event["deadline_expired"] is True
    assert event["shards_degraded"] == []


def test_degraded_database_honours_the_deadline(tmp_path, monkeypatch):
    """A database whose index is unreadable at open scans every live
    record through the engine's chunked fine phase: a deadline expiring
    while the first chunk is fetched yields a flagged partial, the
    unbounded ranking restricted to that chunk's records."""
    from repro.database import Database
    from repro.instrumentation import faults

    generator = np.random.default_rng(5)
    records = [
        Sequence(f"d{slot}", generator.integers(0, 4, 150, dtype=np.uint8))
        for slot in range(3 * DEADLINE_FINE_CHUNK)
    ]
    path = tmp_path / "degraded.db"
    Database.create(records, path).close()
    target = path / "intervals.rpix"
    span = faults.index_sections(target)["header_crc"]
    faults.flip_byte(target, span[0], mask=0x80)
    query = Sequence("q", records[DEADLINE_FINE_CHUNK + 7].codes[20:130])
    with Database.open(path, on_corruption="fallback") as database:
        assert database.degraded
        full = database.search(query, top_k=len(records))
        clock = FakeClock()
        store = database.shards[0].store
        fetch = store.codes

        def ticking(ordinal):
            clock.advance(1.0)
            return fetch(ordinal)

        monkeypatch.setattr(store, "codes", ticking)
        report = database.search(
            query, top_k=len(records), deadline=Deadline.after(0.5, clock)
        )
    assert not full.deadline_expired
    assert full.candidates_examined == len(records)
    assert report.degraded
    assert report.deadline_expired
    assert report.partial
    assert report.candidates_examined == DEADLINE_FINE_CHUNK
    assert report.hits
    assert report.hits == [
        hit for hit in full.hits if hit.ordinal < DEADLINE_FINE_CHUNK
    ]
