"""Unit tests for frame localisation and frame-restricted fine search."""

import numpy as np
import pytest

from repro.align.scoring import ScoringScheme
from repro.errors import SearchError
from repro.index.builder import IndexParameters, build_index
from repro.index.store import MemorySequenceSource
from repro.instrumentation.instruments import Instruments
from repro.search.engine import PartitionedSearchEngine
from repro.search.fine import FineSearcher, fetch_targets, scan_targets
from repro.search.frames import FrameLocaliser
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


def frames_engine(index, source, **options):
    return PartitionedSearchEngine(
        index, source, fine_mode="frames", **options
    )


class TestFrameRanker:
    """Frames mode ranks with the count ranker, then cuts each fetched
    candidate to the frame its shared intervals imply."""

    def test_parameter_validation(self, setup):
        _, source, index, query = setup
        with pytest.raises(SearchError, match="coarse_cutoff"):
            frames_engine(index, source, coarse_cutoff=0)
        with pytest.raises(SearchError, match="cutoff"):
            frames_engine(index, source).coarse_rank(query, 0)

    def test_frame_covers_the_true_region(self, setup):
        records, source, index, query = setup
        best = frames_engine(index, source).coarse_rank(query, cutoff=3)[0]
        assert best.ordinal == 13
        # The match lives at [500, 680); the frame must contain it.
        (frame,) = FrameLocaliser(query, 8).frames([records[13].codes])
        assert frame.start <= 500
        assert frame.stop >= 680

    def test_frames_clipped_to_sequence(self, setup):
        records, source, index, query = setup
        fetched = [
            records[candidate.ordinal].codes
            for candidate in frames_engine(index, source).coarse_rank(
                query, cutoff=10
            )
        ]
        for codes, frame in zip(
            fetched, FrameLocaliser(query, 8).frames(fetched)
        ):
            assert 0 <= frame.start < frame.stop <= codes.shape[0]

    def test_frames_are_much_smaller_than_sequences(self, setup):
        records, source, index, query = setup
        fetched = [
            records[candidate.ordinal].codes
            for candidate in frames_engine(index, source).coarse_rank(
                query, cutoff=5
            )
        ]
        for frame in FrameLocaliser(query, 8)(fetched):
            assert frame.shape[0] <= len(query) + 200

    def test_cutoff_respected(self, setup):
        _, source, index, query = setup
        assert len(frames_engine(index, source).coarse_rank(query, 2)) <= 2

    def test_no_intervals_no_candidates(self, setup):
        records, source, index, _ = setup
        wildcards = np.full(50, 14, dtype=np.uint8)
        assert frames_engine(index, source).coarse_rank(wildcards, 5) == []
        # With nothing to localise with, a record is aligned whole.
        fetched = [records[0].codes, records[1].codes[:300]]
        assert FrameLocaliser(wildcards, 8).frames(fetched) == [
            slice(0, 800), slice(0, 300)
        ]


class TestFrameFineSearcher:
    """The fine phase aligns the frames the localiser cuts from the
    fetched records."""

    def test_frame_alignment_matches_whole_sequence(self, setup):
        _, source, index, query = setup
        engine = frames_engine(index, source)
        hits = engine.fine_align(query, engine.coarse_rank(query, cutoff=5))
        assert hits[0].ordinal == 13
        assert hits[0].score == 180  # the planted window aligns perfectly

    def test_frame_is_the_target(self, setup):
        records, source, index, query = setup
        candidates = frames_engine(index, source).coarse_rank(query, 1)
        (frame,) = FrameLocaliser(query, 8)(fetch_targets(source, candidates))
        assert frame.shape[0] < records[13].codes.shape[0]
        scores = scan_targets(query, [frame], ScoringScheme()).scores
        assert scores.tolist() == [180]
        beside = records[13].codes[0:180]
        scores = scan_targets(query, [beside], ScoringScheme()).scores
        assert scores[0] < 180

    def test_empty_inputs(self, setup):
        _, source, _, query = setup
        searcher = FineSearcher(source)
        assert searcher.align_candidates(query, []) == []
        empty = np.empty(0, dtype=np.uint8)
        assert searcher.align_candidates(empty, []) == []


def scanned_columns(engine, query) -> tuple[list, int]:
    """One search's hits (every candidate that scored) and the columns
    its fine-phase scan covered, read from the ``scan`` span's
    ``columns`` annotation."""
    instruments = Instruments()
    engine.set_instruments(instruments)
    report = engine.search(query, top_k=engine.coarse_cutoff)
    columns = [
        row["annotations"]["columns"]
        for row in instruments.tracer.flat()
        if row["name"] == "scan"
    ]
    return report.hits, sum(columns)


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

    def test_frames_mode_is_faster_on_long_sequences(self):
        """The fine phase scans ~query-sized frames instead of
        2 400-base candidates: the image has under a third of full
        mode's columns, and a frame never scores above its whole
        record.  (Each target also carries a query-sized sentinel run,
        so on the 800-base records of ``setup`` the share is ~0.43.)"""
        rng = np.random.default_rng(92)
        records = [
            Sequence(f"long{slot}", rng.integers(0, 4, 2400, dtype=np.uint8))
            for slot in range(30)
        ]
        query = records[13].codes[1500:1680].copy()
        index = build_index(records, IndexParameters(interval_length=8))
        source = MemorySequenceSource(records)
        full = PartitionedSearchEngine(index, source, coarse_cutoff=20)
        framed = frames_engine(index, source, coarse_cutoff=20)
        full_hits, full_columns = scanned_columns(full, query)
        framed_hits, framed_columns = scanned_columns(framed, query)
        assert full_columns > 0
        assert framed_columns * 3 < full_columns
        whole = {hit.ordinal: hit.score for hit in full_hits}
        assert framed_hits and full_hits[0].ordinal == 13
        for hit in framed_hits:
            assert hit.score <= whole[hit.ordinal]
