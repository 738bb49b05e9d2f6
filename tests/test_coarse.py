"""Unit tests for coarse (index-phase) ranking."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.index.builder import IndexParameters, build_index
from repro.instrumentation.instruments import Instruments
from repro.search.coarse import SCORERS, CoarseRanker
from repro.sequences.record import Sequence
from tests.conftest import scalar_read_lists


def seq(identifier: str, text: str) -> Sequence:
    return Sequence.from_text(identifier, text)


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(31)
    records = [
        Sequence(f"r{slot}", rng.integers(0, 4, 300, dtype=np.uint8))
        for slot in range(30)
    ]
    # Plant: sequence 7 contains the query verbatim.
    query = rng.integers(0, 4, 60, dtype=np.uint8)
    planted = records[7].codes.copy()
    planted[100:160] = query
    records[7] = Sequence("r7", planted)
    return records, query


@pytest.fixture(scope="module")
def index(collection):
    records, _ = collection
    return build_index(records, IndexParameters(interval_length=8))


class TestMakeScorer:
    def test_known_names(self, index):
        assert SCORERS == ("count", "idf")
        for name in SCORERS:
            assert CoarseRanker(index, name).scorer == name

    def test_unknown_name(self, index):
        with pytest.raises(SearchError, match="unknown coarse scorer"):
            CoarseRanker(index, "pagerank")


class TestRanking:
    def test_planted_sequence_ranks_first(self, index, collection):
        _, query = collection
        ranker = CoarseRanker(index, "count")
        candidates = ranker.rank(query, cutoff=5)
        assert candidates[0].ordinal == 7
        assert candidates[0].coarse_score >= 50

    def test_cutoff_limits_candidates(self, index, collection):
        _, query = collection
        ranker = CoarseRanker(index)
        assert len(ranker.rank(query, cutoff=3)) <= 3

    def test_cutoff_validation(self, index, collection):
        _, query = collection
        with pytest.raises(SearchError):
            CoarseRanker(index).rank(query, cutoff=0)

    def test_scores_sorted_descending(self, index, collection):
        _, query = collection
        candidates = CoarseRanker(index).rank(query, cutoff=20)
        scores = [candidate.coarse_score for candidate in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_zero_scores_excluded(self, index):
        # A query of poly-N extracts no intervals at all.
        ranker = CoarseRanker(index)
        no_hits = ranker.rank(np.full(50, 14, dtype=np.uint8), cutoff=10)
        assert no_hits == []

    def test_query_shorter_than_interval(self, index):
        ranker = CoarseRanker(index)
        assert ranker.rank(np.zeros(3, dtype=np.uint8), cutoff=10) == []

    def test_count_scorer_caps_by_query_multiplicity(self):
        # Target has AAAA many times; query contains it once: the score
        # contribution is capped at the query's count.
        records = [seq("many", "A" * 50), seq("once", "AAAATTTT")]
        index = build_index(records, IndexParameters(interval_length=4))
        ranker = CoarseRanker(index, "count")
        candidates = ranker.rank(seq("q", "AAAACCCC").codes, cutoff=5)
        by_ordinal = {c.ordinal: c.coarse_score for c in candidates}
        assert by_ordinal[0] == 1.0
        assert by_ordinal[1] == 1.0


class _ScalarReads:
    """An index whose ``read_lists`` decodes every list with the scalar
    per-list codec: the oracle rankings are compared against."""

    def __init__(self, index):
        self._index = index
        self.params = index.params
        self.collection = index.collection

    def read_lists(self, interval_ids, *, skip=None, deadline=None):
        return scalar_read_lists(self._index, interval_ids)


class TestFlatDecodeParity:
    """The flat block decoder must be invisible to ranking: every scorer
    ranks exactly as it does over the scalar per-list decode."""

    def test_rankings_identical_to_scalar_decode(self, index, collection):
        _, query = collection
        for name in SCORERS:
            results = [
                [
                    (c.ordinal, c.coarse_score)
                    for c in CoarseRanker(reader, name).rank(query, cutoff=30)
                ]
                for reader in (index, _ScalarReads(index))
            ]
            assert results[0] == results[1], name

    def test_decode_counters_agree_across_scorers_and_decoders(
        self, index, collection
    ):
        # One unit definition (see docs/OBSERVABILITY.md): +1 fetch per
        # list, +df gaps per list — whichever scorer, whichever decoder.
        _, query = collection
        seen = set()
        for name in SCORERS:
            for reader in (index, _ScalarReads(index)):
                instruments = Instruments()
                ranker = CoarseRanker(reader, name)
                ranker.set_instruments(instruments)
                ranker.rank(query, cutoff=10)
                counters = instruments.metrics.snapshot()["counters"]
                seen.add(
                    (
                        counters["coarse.postings_fetched"],
                        counters["coarse.dgaps_decoded"],
                    )
                )
        assert len(seen) == 1, seen


class TestIdfSingleLookup:
    def test_one_vocabulary_lookup_per_interval(self):
        records = [
            seq("a", "ACGTACGTAAAACCCC"),
            seq("b", "ACGTTTTTGGGGACGT"),
            seq("c", "CCCCAAAAACGTACGT"),
        ]
        index = build_index(records, IndexParameters(interval_length=4))
        query = records[0].codes
        ranker = CoarseRanker(index, "idf")
        ids = ranker.query_intervals(query)[0].tolist()
        assert set(ids) <= set(index.interval_ids())
        calls = []
        original = index.lookup_entry
        index.lookup_entry = lambda interval_id: (
            calls.append(interval_id) or original(interval_id)
        )
        try:
            instruments = Instruments()
            ranker.set_instruments(instruments)
            ranker.scores(query)
        finally:
            del index.lookup_entry
        # The idf weight reuses the entry the decode already
        # resolved: exactly one vocabulary access per interval,
        # not lookup + decode as two separate walks.
        assert len(calls) == len(ids)
        counters = instruments.metrics.snapshot()["counters"]
        assert counters["coarse.postings_fetched"] == len(ids)
