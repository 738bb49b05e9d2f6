"""Work counters asserted as formulas of the database layout.

Wall time is a noisy instrument; how many times a step runs per query
is exact and machine-independent.  Each test runs the fixed parity
corpus through the classic, 3-shard and live (2-shard base, two delta
shards, tombstones) layouts and asserts a per-search count as a
function of the layout, so a regression back to per-interval or
per-shard loops fails deterministically.
"""

from repro.instrumentation.instruments import Instruments


def _per_search(database, queries, counter):
    """``(increment, report)`` of ``counter`` for each search of
    ``queries`` on the database's default engine (one strand, no
    deadline)."""
    engine = database.engine()
    previous = engine.instruments
    instruments = Instruments()
    engine.set_instruments(instruments)
    searches = []
    try:
        for query in queries:
            before = instruments.metrics.counter_value(counter)
            report = engine.search(query, top_k=10)
            searches.append(
                (instruments.metrics.counter_value(counter) - before, report)
            )
    finally:
        engine.set_instruments(previous)
    return searches


def _worlds(parity_worlds):
    return (parity_worlds.single, parity_worlds.sharded, parity_worlds.live)


def test_one_vocabulary_resolve_per_shard(parity_worlds):
    """``index.storage.resolves`` per search == inverted shards.

    Each shard resolves the query's interval ids in one storage call.
    Mutation check: restoring the per-id loop in
    ``IndexReader._read_chunk`` — ``ResolvedLists.from_entries(ids,
    [self.lookup_entry(i) for i in ids.tolist()])`` in place of
    ``self.resolve(...)`` — makes every search count one resolve per
    query interval per shard, and this test fails.
    """
    for database in _worlds(parity_worlds):
        shards = database.num_shards
        assert all(
            shard.index.coarse_backend == "inverted"
            for shard in database.shards
        )
        searches = _per_search(
            database, parity_worlds.queries, "index.storage.resolves"
        )
        assert [resolves for resolves, _ in searches] == [shards] * len(
            parity_worlds.queries
        )
    assert (
        parity_worlds.single.num_shards,
        parity_worlds.sharded.num_shards,
        parity_worlds.live.num_shards,
    ) == (1, 3, 4)


def test_one_record_fetch_per_scanned_candidate(parity_worlds):
    """``store.records_fetched`` per search == candidates the fine phase
    scanned (``report.candidates_examined``), on every layout: each
    candidate's record is fetched exactly once, never re-fetched per
    shard or per phase."""
    for database in _worlds(parity_worlds):
        searches = _per_search(
            database, parity_worlds.queries, "store.records_fetched"
        )
        assert all(report.candidates_examined for _, report in searches)
        assert [fetched for fetched, _ in searches] == [
            report.candidates_examined for _, report in searches
        ]


def test_degraded_search_scans_every_live_record(
    parity_worlds, degraded_worlds
):
    """On a database opened without one shard's index, a search runs no
    ranker — ``index.storage.resolves`` == 0, even on the shards whose
    index is intact — and fetches each live record once:
    ``store.records_fetched`` == ``candidates_examined`` == live N."""
    live = len(parity_worlds.survivors)
    for layout in ("single", "sharded", "live"):
        database = degraded_worlds[layout, "open"]
        resolves = _per_search(
            database, parity_worlds.queries, "index.storage.resolves"
        )
        assert [count for count, _ in resolves] == [0] * len(resolves)
        fetches = _per_search(
            database, parity_worlds.queries, "store.records_fetched"
        )
        assert [
            (fetched, report.candidates_examined) for fetched, report in fetches
        ] == [(live, live)] * len(fetches)
        assert all(report.degraded for _, report in fetches)
