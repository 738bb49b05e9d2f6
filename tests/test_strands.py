"""Unit tests for both-strand search."""

from dataclasses import fields

import numpy as np
import pytest

from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.search.engine import PartitionedSearchEngine, _merge_strand_hits
from repro.search.results import SearchHit
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(101)
    records = [
        Sequence(f"st{slot}", rng.integers(0, 4, 400, dtype=np.uint8))
        for slot in range(30)
    ]
    index = build_index(records, IndexParameters(interval_length=8))
    source = MemorySequenceSource(records)
    return records, index, source


class TestBothStrands:
    def test_forward_query_still_found(self, setup):
        records, index, source = setup
        engine = PartitionedSearchEngine(
            index, source, coarse_cutoff=10, both_strands=True
        )
        query = records[4].slice(100, 260)
        report = engine.search(query, top_k=3)
        assert report.best().ordinal == 4
        assert report.best().strand == "+"

    def test_reverse_complement_query_found_on_minus_strand(self, setup):
        records, index, source = setup
        engine = PartitionedSearchEngine(
            index, source, coarse_cutoff=10, both_strands=True
        )
        query = records[9].slice(50, 210).reverse_complement()
        report = engine.search(query, top_k=3)
        assert report.best().ordinal == 9
        assert report.best().strand == "-"
        assert report.best().score == 160

    def test_single_strand_engine_misses_reverse_query(self, setup):
        records, index, source = setup
        engine = PartitionedSearchEngine(index, source, coarse_cutoff=10)
        query = records[9].slice(50, 210).reverse_complement()
        report = engine.search(query, top_k=3)
        best = report.best()
        assert best is None or best.score < 80

    def test_palindrome_free_merge_keeps_best_orientation(self, setup):
        records, index, source = setup
        engine = PartitionedSearchEngine(
            index, source, coarse_cutoff=30, both_strands=True
        )
        query = records[2].slice(0, 150)
        report = engine.search(query, top_k=10)
        # No ordinal may appear twice after the strand merge.
        ordinals = report.ordinals()
        assert len(ordinals) == len(set(ordinals))

    def test_both_strand_timing_accumulates(self, setup, monkeypatch):
        """Under a clock that advances one step per read, a both-strand
        search's phase times are those of a forward search plus a
        reverse-complement search."""
        clock = iter(range(1, 10**6))
        monkeypatch.setattr(
            "repro.search.engine.time.perf_counter", lambda: float(next(clock))
        )
        records, index, source = setup
        single = PartitionedSearchEngine(index, source, coarse_cutoff=10)
        double = PartitionedSearchEngine(
            index, source, coarse_cutoff=10, both_strands=True
        )
        query = records[1].slice(0, 200)
        forward = single.search(query)
        reverse = single.search(query.reverse_complement())
        both = double.search(query)
        assert forward.coarse_seconds > 0 and forward.fine_seconds > 0
        assert both.coarse_seconds == (
            forward.coarse_seconds + reverse.coarse_seconds
        )
        assert both.fine_seconds == forward.fine_seconds + reverse.fine_seconds
        assert both.total_seconds > forward.total_seconds * 1.2

    def test_candidates_examined_sums_both_orientations(self, setup):
        """Both-strand reports must charge the fine work of BOTH
        orientations, not just the busier one (regression: the count
        used to be the max of the two)."""
        records, index, source = setup
        single = PartitionedSearchEngine(index, source, coarse_cutoff=10)
        double = PartitionedSearchEngine(
            index, source, coarse_cutoff=10, both_strands=True
        )
        query = records[4].slice(100, 260)
        forward = single.search(query).candidates_examined
        reverse = single.search(
            query.reverse_complement()
        ).candidates_examined
        assert forward > 0 and reverse > 0
        assert double.search(query).candidates_examined == forward + reverse

    def test_frames_mode_with_both_strands(self, setup):
        records, index, source = setup
        engine = PartitionedSearchEngine(
            index, source, coarse_cutoff=10,
            fine_mode="frames", both_strands=True,
        )
        query = records[7].slice(120, 280).reverse_complement()
        report = engine.search(query, top_k=3)
        assert report.best().ordinal == 7
        assert report.best().strand == "-"


class TestStrandMerge:
    def test_reverse_hit_keeps_every_field(self):
        """A reverse-orientation winner must survive the merge with all
        its fields — the merge used to rebuild hits field-by-field and
        silently dropped any field it didn't name (e.g. evalue)."""
        reverse = SearchHit(
            ordinal=3,
            identifier="seq3",
            score=50,
            coarse_score=7.5,
            evalue=1e-3,
        )
        (merged,) = _merge_strand_hits([], [reverse])
        assert merged.strand == "-"
        for field in fields(SearchHit):
            if field.name == "strand":
                continue
            assert getattr(merged, field.name) == getattr(
                reverse, field.name
            ), f"merge dropped SearchHit.{field.name}"

    def test_better_forward_orientation_wins(self):
        forward = SearchHit(ordinal=1, identifier="s1", score=80)
        reverse = SearchHit(
            ordinal=1, identifier="s1", score=60, evalue=0.5
        )
        (merged,) = _merge_strand_hits([forward], [reverse])
        assert merged.strand == "+"
        assert merged.score == 80

    def test_better_reverse_orientation_wins(self):
        forward = SearchHit(ordinal=1, identifier="s1", score=40)
        reverse = SearchHit(
            ordinal=1, identifier="s1", score=90, coarse_score=3.0
        )
        (merged,) = _merge_strand_hits([forward], [reverse])
        assert merged.strand == "-"
        assert merged.score == 90
        assert merged.coarse_score == 3.0
