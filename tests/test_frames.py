"""Unit tests for frame ranking and frame-restricted fine search."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.search.engine import PartitionedSearchEngine
from repro.search.fine import FineSearcher
from repro.search.frames import FrameCandidate, FrameRanker
from repro.sequences.record import Sequence


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(91)
    records = [
        Sequence(f"fr{slot}", rng.integers(0, 4, 800, dtype=np.uint8))
        for slot in range(40)
    ]
    # The query is a window deep inside sequence 13.
    query = records[13].codes[500:680].copy()
    index = build_index(records, IndexParameters(interval_length=8))
    return records, MemorySequenceSource(records), index, query


class TestFrameRanker:
    def test_requires_positions(self, setup):
        records, _, _, _ = setup
        bare = build_index(
            records, IndexParameters(interval_length=8, include_positions=False)
        )
        with pytest.raises(SearchError, match="positions"):
            FrameRanker(bare)

    def test_parameter_validation(self, setup):
        _, _, index, _ = setup
        with pytest.raises(SearchError):
            FrameRanker(index, band_width=0)
        with pytest.raises(SearchError):
            FrameRanker(index, margin=-1)
        with pytest.raises(SearchError):
            FrameRanker(index).rank(np.zeros(20, dtype=np.uint8), 0)

    def test_frame_covers_the_true_region(self, setup):
        _, _, index, query = setup
        candidates = FrameRanker(index).rank(query, cutoff=3)
        best = candidates[0]
        assert best.ordinal == 13
        # The match lives at [500, 680); the frame must contain it.
        assert best.target_start <= 500
        assert best.target_end >= 680

    def test_frames_clipped_to_sequence(self, setup):
        _, _, index, query = setup
        for candidate in FrameRanker(index).rank(query, cutoff=10):
            length = int(index.collection.lengths[candidate.ordinal])
            assert 0 <= candidate.target_start < candidate.target_end <= length

    def test_frames_are_much_smaller_than_sequences(self, setup):
        _, _, index, query = setup
        ranker = FrameRanker(index, margin=32)
        for candidate in ranker.rank(query, cutoff=5):
            assert candidate.width <= len(query) + 200

    def test_cutoff_respected(self, setup):
        _, _, index, query = setup
        assert len(FrameRanker(index).rank(query, cutoff=2)) <= 2

    def test_no_intervals_no_candidates(self, setup):
        _, _, index, _ = setup
        wildcards = np.full(50, 14, dtype=np.uint8)
        assert FrameRanker(index).rank(wildcards, cutoff=5) == []


class TestFrameFineSearcher:
    """``FineSearcher`` aligns a ``FrameCandidate``'s frame only."""

    def test_frame_alignment_matches_whole_sequence(self, setup):
        _, source, index, query = setup
        candidates = FrameRanker(index).rank(query, cutoff=5)
        hits = FineSearcher(source).align_candidates(query, candidates)
        assert hits[0].ordinal == 13
        assert hits[0].score == 180  # the planted window aligns perfectly

    def test_frame_is_the_target(self, setup):
        _, source, _, query = setup
        inside = FrameCandidate(13, 1.0, 500, 680)
        beside = FrameCandidate(13, 1.0, 0, 180)
        (hit,) = FineSearcher(source).align_candidates(query, [inside])
        assert hit.score == 180
        (miss,) = FineSearcher(source).align_candidates(query, [beside])
        assert miss.score < 180

    def test_empty_inputs(self, setup):
        _, source, _, query = setup
        searcher = FineSearcher(source)
        assert searcher.align_candidates(query, []) == []
        empty = np.empty(0, dtype=np.uint8)
        assert searcher.align_candidates(empty, []) == []


class TestFrameEngine:
    def test_fine_mode_validation(self, setup):
        _, source, index, _ = setup
        with pytest.raises(SearchError, match="fine_mode"):
            PartitionedSearchEngine(index, source, fine_mode="sideways")

    def test_frames_mode_agrees_with_full_mode_on_planted_match(self, setup):
        _, source, index, query = setup
        full = PartitionedSearchEngine(index, source, coarse_cutoff=10)
        framed = PartitionedSearchEngine(
            index, source, coarse_cutoff=10, fine_mode="frames"
        )
        full_report = full.search(query, top_k=3)
        frame_report = framed.search(query, top_k=3)
        assert frame_report.best().ordinal == full_report.best().ordinal
        assert frame_report.best().score == full_report.best().score

    def test_frames_mode_requires_positions(self, setup):
        records, source, _, _ = setup
        bare = build_index(
            records, IndexParameters(interval_length=8, include_positions=False)
        )
        with pytest.raises(SearchError, match="positions"):
            PartitionedSearchEngine(bare, source, fine_mode="frames")

    def test_frames_mode_is_faster_on_long_sequences(self, setup):
        """The fine phase aligns ~query-sized frames instead of 800-base
        candidates, so measured fine time must drop.  The comparison is
        on the reports' ``fine_seconds``: frame ranking's positional
        coarse phase is dearer, so whole-search wall clock is not what
        this mode promises to shrink."""
        _, source, index, query = setup
        full = PartitionedSearchEngine(index, source, coarse_cutoff=20)
        framed = PartitionedSearchEngine(
            index, source, coarse_cutoff=20, fine_mode="frames"
        )
        full.search(query)  # warm both paths
        framed.search(query)
        full_reports = [full.search(query) for _ in range(3)]
        framed_reports = [framed.search(query) for _ in range(3)]
        full_seconds = sum(report.fine_seconds for report in full_reports)
        framed_seconds = sum(
            report.fine_seconds for report in framed_reports
        )
        assert framed_seconds < full_seconds
        assert full_reports[-1].best() is not None
