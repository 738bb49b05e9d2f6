"""Retry / breaker units and sharded-engine degradation behaviour.

The end-to-end contract: a shard that keeps failing is retried, then
dropped for the query (``shards_degraded`` names it), then skipped
outright once its breaker opens — and the query result over the
surviving shards is identical to an engine built without the bad shard.
"""

import random

import numpy as np
import pytest

from repro.errors import SearchError, StorageError
from repro.index.builder import IndexParameters, IndexReader, build_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation.instruments import Instruments
from repro.search.engine import PartitionedSearchEngine
from repro.search.resilience import (
    CircuitBreaker,
    RetryPolicy,
    ShardResilience,
    ShardTimeout,
    ShardUnavailable,
)
from repro.sequences.record import Sequence


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(SearchError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SearchError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(SearchError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(SearchError):
            RetryPolicy(base_delay=-1.0)

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_delay_capped(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=10.0, max_delay=2.5, jitter=0.0
        )
        assert policy.delay(5) == pytest.approx(2.5)

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.5
        )
        rng = random.Random(7)
        delays = [policy.delay(1, rng) for _ in range(200)]
        assert all(0.5 <= d <= 1.5 for d in delays)
        assert max(delays) > 1.1 and min(delays) < 0.9

    def test_delay_requires_positive_retries(self):
        with pytest.raises(SearchError):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(3, 10.0, clock)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_count(self):
        breaker = CircuitBreaker(2, 10.0, FakeClock())
        breaker.record_failure()
        breaker.record_success()
        assert breaker.failures == 0
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_single_admission(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(SearchError):
            CircuitBreaker(0)
        with pytest.raises(SearchError):
            CircuitBreaker(1, -1.0)


class TestShardResilience:
    def test_validation(self):
        with pytest.raises(SearchError):
            ShardResilience(shard_timeout=0.0)
        with pytest.raises(SearchError):
            ShardResilience(breaker_failures=0)

    def test_hashable_for_engine_cache_keys(self):
        a = ShardResilience(shard_timeout=1.0)
        b = ShardResilience(shard_timeout=1.0)
        assert a == b and hash(a) == hash(b)

    def test_make_breaker_carries_thresholds(self):
        resilience = ShardResilience(
            breaker_failures=2, breaker_reset_seconds=7.0
        )
        breaker = resilience.make_breaker(FakeClock())
        assert breaker.failure_threshold == 2
        assert breaker.reset_seconds == 7.0


class FlakyIndex(IndexReader):
    """Index proxy whose reads raise StorageError for a while."""

    def __init__(self, inner, failures):
        self._inner = inner
        self.remaining = failures
        self.params = inner.params
        self.collection = inner.collection

    def _maybe_fail(self):
        if self.remaining > 0:
            self.remaining -= 1
            raise StorageError("injected shard fault")

    def lookup_entry(self, interval_id):
        self._maybe_fail()
        return self._inner.lookup_entry(interval_id)

    def decode_lists(self, resolved):
        self._maybe_fail()
        return self._inner.decode_lists(resolved)

    def interval_ids(self):
        return self._inner.interval_ids()

    @property
    def vocabulary_size(self):
        return self._inner.vocabulary_size


PARAMS = IndexParameters(interval_length=6)
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.001, max_delay=0.002, jitter=0.0
)


def _records(count=24, length=200, seed=11):
    rng = np.random.default_rng(seed)
    records = []
    for slot in range(count):
        codes = rng.integers(0, 4, length, dtype=np.uint8)
        if slot and slot % 4 == 0:
            codes[30:90] = records[0].codes[30:90]
        records.append(Sequence(f"res{slot:03d}", codes))
    return records


def _query(records):
    return Sequence("resq", records[0].codes[20:120].copy())


def _shard_pairs(records, shards=3, flaky_slot=None, failures=0):
    pairs = []
    for slot in range(shards):
        part = records[slot::shards]
        index = build_index(part, PARAMS)
        if slot == flaky_slot:
            index = FlakyIndex(index, failures)
        pairs.append((index, MemorySequenceSource(part)))
    return pairs


def test_transient_fault_retried_to_success():
    """One failing attempt, then clean: retry hides it completely."""
    records = _records()
    resilience = ShardResilience(retry=FAST_RETRY, seed=3)
    instruments = Instruments()
    flaky = PartitionedSearchEngine.over_shards(
        _shard_pairs(records, flaky_slot=1, failures=1),
        resilience=resilience,
        instruments=instruments,
    )
    clean = PartitionedSearchEngine.over_shards(_shard_pairs(records))
    query = _query(records)
    report = flaky.search(query, top_k=8)
    expected = clean.search(query, top_k=8)
    assert report.shards_degraded == ()
    assert not report.partial
    assert [h.ordinal for h in report.hits] == [
        h.ordinal for h in expected.hits
    ]
    snapshot = instruments.metrics.snapshot()
    assert snapshot["counters"].get("partitioned.shard.1.retries", 0) >= 1
    assert "partitioned.shard.1.degraded" not in snapshot["counters"]


def test_persistent_fault_degrades_and_trips_breaker():
    records = _records()
    resilience = ShardResilience(
        retry=FAST_RETRY, breaker_failures=3, breaker_reset_seconds=60.0,
        seed=3,
    )
    instruments = Instruments()
    engine = PartitionedSearchEngine.over_shards(
        _shard_pairs(records, flaky_slot=1, failures=10_000),
        resilience=resilience,
        instruments=instruments,
    )
    query = _query(records)
    first = engine.search(query, top_k=8)
    assert first.shards_degraded == (1,)
    assert first.partial
    assert engine.breaker_states() == {
        0: "closed", 1: "open", 2: "closed",
    }
    # Breaker now open: the shard is skipped without attempts.
    second = engine.search(query, top_k=8)
    assert second.shards_degraded == (1,)
    counters = instruments.metrics.snapshot()["counters"]
    assert counters.get("partitioned.shard.1.breaker_skips", 0) >= 1
    assert counters.get("partitioned.degraded_queries", 0) == 2

    # Degraded results equal a two-shard engine without the bad shard.
    surviving = [
        pair for slot, pair in enumerate(_shard_pairs(records))
        if slot != 1
    ]
    # Ordinals differ between layouts, so compare identifiers + scores.
    reduced = PartitionedSearchEngine.over_shards(surviving).search(query, top_k=8)
    assert [(h.identifier, h.score) for h in second.hits] == [
        (h.identifier, h.score) for h in reduced.hits
    ]


class FailingFetchSource(MemorySequenceSource):
    """A shard store whose record fetches always fail."""

    def codes(self, ordinal):
        raise StorageError("injected store fault")


def test_store_fault_at_fetch_degrades_only_that_shard():
    """Shard 1 ranks fine but its store fails at fetch: only shard 1 is
    dropped, the one image holds the other shards' targets, and
    ``candidates_examined`` counts only what was scanned."""
    records = _records()
    healthy_pairs = _shard_pairs(records)
    pairs = list(healthy_pairs)
    pairs[1] = (pairs[1][0], FailingFetchSource(records[1::3]))
    engine = PartitionedSearchEngine.over_shards(
        pairs,
        coarse_cutoff=12,
        resilience=ShardResilience(retry=FAST_RETRY, seed=3),
    )
    instruments = Instruments()
    healthy = PartitionedSearchEngine.over_shards(
        healthy_pairs, coarse_cutoff=12, instruments=instruments
    )
    query = _query(records)
    report = engine.search(query, top_k=50)
    expected = healthy.search(query, top_k=50)
    lost = {record.identifier for record in records[1::3]}
    assert report.shards_degraded == (1,)
    assert lost & {hit.identifier for hit in expected.hits}
    assert report.hits == [
        hit for hit in expected.hits if hit.identifier not in lost
    ]
    (share,) = [
        row["annotations"]["candidates"]
        for row in instruments.tracer.flat()
        if row["name"] == "shard[1].fine"
    ]
    assert report.candidates_examined == expected.candidates_examined - share


def test_one_shard_fine_align_raises_when_its_fetch_gives_up():
    """Composing the fan-out by hand, a shard that gives up at fetch must
    not look like a shard with no hits."""
    records = _records()
    index = build_index(records, PARAMS)
    engine = PartitionedSearchEngine(
        index,
        FailingFetchSource(records),
        resilience=ShardResilience(retry=FAST_RETRY, seed=3),
    )
    codes = _query(records).codes
    candidates = engine.coarse_rank(codes)
    assert candidates
    with pytest.raises(ShardUnavailable) as caught:
        engine.fine_align(codes, candidates)
    assert caught.value.shard == 0
    assert caught.value.reason == "retries_exhausted"
    with pytest.raises(StorageError):  # no resilience: the fault itself
        PartitionedSearchEngine(
            index, FailingFetchSource(records)
        ).fine_align(codes, candidates)


def test_no_resilience_propagates_shard_errors():
    records = _records()
    engine = PartitionedSearchEngine.over_shards(
        _shard_pairs(records, flaky_slot=0, failures=10_000)
    )
    with pytest.raises(StorageError):
        engine.search(_query(records), top_k=5)


def test_shard_timeout_is_a_timeout_error():
    exc = ShardTimeout("slow")
    assert isinstance(exc, TimeoutError)


def test_shard_unavailable_carries_context():
    exc = ShardUnavailable(2, "breaker_open", "shard 2: circuit breaker open")
    assert exc.shard == 2
    assert exc.reason == "breaker_open"
    assert isinstance(exc, SearchError)


def test_attempt_timeout_drops_slow_shard():
    """A shard whose attempts exceed the timeout degrades the query."""
    import time as _time

    records = _records()

    class SlowIndex(FlakyIndex):
        def lookup_entry(self, interval_id):
            _time.sleep(0.05)
            return self._inner.lookup_entry(interval_id)

        def decode_lists(self, *args, **kwargs):
            _time.sleep(0.05)
            return self._inner.decode_lists(*args, **kwargs)

    pairs = _shard_pairs(records)
    slow = SlowIndex(build_index(records[1::3], PARAMS), 0)
    pairs[1] = (slow, pairs[1][1])
    engine = PartitionedSearchEngine.over_shards(
        pairs,
        resilience=ShardResilience(
            shard_timeout=0.02,
            retry=RetryPolicy(max_attempts=1, jitter=0.0),
            breaker_failures=1,
            seed=3,
        ),
    )
    try:
        report = engine.search(_query(records), top_k=5)
        assert report.shards_degraded == (1,)
        assert engine.breaker_states()[1] == "open"
    finally:
        engine.close()
