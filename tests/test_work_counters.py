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


def _per_search(database, queries, counter, **engine_kwargs):
    """``(increment, report)`` of ``counter`` for each search of
    ``queries`` on the database's engine for ``engine_kwargs`` (one
    strand and no deadline by default).  ``counter`` names a metrics
    counter, or is a function of the :class:`Instruments` read before
    and after each search."""
    if not callable(counter):
        name = counter

        def counter(instruments):
            return instruments.metrics.counter_value(name)

    engine = database.engine(**engine_kwargs)
    previous = engine.instruments
    instruments = Instruments()
    engine.set_instruments(instruments)
    searches = []
    try:
        for query in queries:
            before = counter(instruments)
            report = engine.search(query, top_k=10)
            searches.append((counter(instruments) - before, report))
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


def test_one_scan_per_strand_per_search(parity_worlds):
    """``scan`` spans per search == strands searched, on every layout:
    the fine phase aligns every shard's candidates against one image
    per strand.

    Mutation check: scanning each shard's candidates separately — one
    ``scan_targets`` call per contributing shard in
    ``PartitionedSearchEngine._fine`` — makes the sharded and live
    layouts count one scan per contributing shard, and this test fails.
    """
    def scans(instruments):
        return len(instruments.tracer.durations("scan"))

    for database in _worlds(parity_worlds):
        for both_strands, strands in ((False, 1), (True, 2)):
            searches = _per_search(
                database, parity_worlds.queries, scans,
                both_strands=both_strands,
            )
            assert [count for count, _ in searches] == [strands] * len(
                parity_worlds.queries
            ), (database.path, both_strands)


def test_rescans_at_most_the_candidates_scanned(parity_worlds):
    """``align.kernel.rescanned_segments`` <= candidates scanned, per
    strand, on every layout: the exact rescan revisits only segments of
    the strand's one image, each at most once.

    Each ``scan`` span (one per strand) annotates ``rescanned`` <= its
    ``candidates``, and the counter's increment per search is the spans'
    sum.  The parity images take bounded doubling, and the planted
    fragments score above the first pass's threshold, so some search
    rescans: the formula is not met by rescanning nothing.
    """
    name = "align.kernel.rescanned_segments"
    total = 0
    for database in _worlds(parity_worlds):
        for both_strands, strands in ((False, 1), (True, 2)):
            engine = database.engine(both_strands=both_strands)
            previous = engine.instruments
            instruments = Instruments()
            engine.set_instruments(instruments)
            try:
                for query in parity_worlds.queries:
                    instruments.tracer.reset()
                    before = instruments.metrics.counter_value(name)
                    report = engine.search(query, top_k=10)
                    after = instruments.metrics.counter_value(name)
                    rescanned = after - before
                    scans = [
                        row["annotations"]
                        for row in instruments.tracer.flat()
                        if row["name"] == "scan"
                    ]
                    assert len(scans) == strands
                    assert all(
                        scan["rescanned"] <= scan["candidates"]
                        for scan in scans
                    )
                    assert rescanned == sum(
                        scan["rescanned"] for scan in scans
                    )
                    assert rescanned <= report.candidates_examined
                    total += rescanned
            finally:
                engine.set_instruments(previous)
    assert total > 0
