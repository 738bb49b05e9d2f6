"""Work counters asserted as formulas of the database layout.

Wall time is a noisy instrument; how many times a step runs per query
is exact and machine-independent.  Each test runs the fixed parity
corpus through the classic, 3-shard and live (2-shard base, two delta
shards, tombstones) layouts and asserts a per-search count as a
function of the layout, so a regression back to per-interval or
per-shard loops fails deterministically.
"""

from repro.compression.bitio import BitReader
from repro.compression.elias import EliasGammaCodec
from repro.compression.golomb import GolombCodec, optimal_golomb_parameter
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


def test_every_list_ends_where_its_entries_end(parity_worlds):
    """Bytes per list == its ``df`` (ordinal gap, count) codes, padded
    to a byte.

    The scalar decode of ``df`` entries consumes each list's blob to
    its last byte on every layout: the index stores nothing past the
    entries.  Writing occurrence offsets again (a section B after the
    entries, as ``tests/data/v2_with_offsets.db`` still has) leaves
    whole bytes unread and fails this test.
    """
    gamma = EliasGammaCodec()
    for database in _worlds(parity_worlds):
        for shard in database.shards:
            index = shard.index
            universe = index.collection.num_sequences
            for interval in index.interval_ids():
                entry = index.lookup_entry(interval)
                gaps = GolombCodec(optimal_golomb_parameter(entry.df, universe))
                reader = BitReader(entry.data)
                for _ in range(entry.df):
                    gaps.decode_value(reader)
                    gamma.decode_value(reader)
                assert 0 <= reader.bits_remaining < 8, interval
