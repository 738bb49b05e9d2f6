"""Property tests: the vectorised kernel vs. the scalar reference.

These are the load-bearing correctness tests for the whole system —
every search engine's scores flow through this kernel.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import kernel
from repro.align.kernel import (
    BOUNDED_CLOSURE_MIN_COLUMNS,
    TargetImage,
    best_local_score,
    column_best_scores,
    scan_profile,
    segment_best_scores,
)
from repro.align.reference import (
    smith_waterman_column_best,
    smith_waterman_score,
)
from repro.align.scoring import SENTINEL_CODE, ScoringScheme
from repro.errors import AlignmentError
from repro.sequences import alphabet

codes_arrays = st.text(alphabet="ACGTN", min_size=0, max_size=60).map(
    alphabet.encode
)
nonempty_codes = st.text(alphabet="ACGTN", min_size=1, max_size=60).map(
    alphabet.encode
)
sequence_sets = st.lists(
    st.text(alphabet="ACGTN", min_size=0, max_size=40), min_size=1, max_size=5
)


@st.composite
def _schemes(draw):
    match = draw(st.integers(min_value=1, max_value=5))
    mismatch = draw(st.integers(min_value=-5, max_value=-1))
    gap = draw(st.integers(min_value=-6, max_value=-1))
    transition = draw(
        st.none() | st.integers(min_value=mismatch, max_value=match - 1)
    )
    return ScoringScheme(match, mismatch, gap, transition)


schemes = _schemes()


@pytest.fixture(scope="class", params=["prefix_max", "bounded"])
def forced_closure(request):
    """Every kernel call in the class takes one closure: the crossover
    moved to infinity (prefix maximum) or to 0 (bounded doubling)."""
    threshold = sys.maxsize if request.param == "prefix_max" else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "BOUNDED_CLOSURE_MIN_COLUMNS", threshold)
        yield request.param


class TestAgainstReference:
    @given(query=codes_arrays, target=codes_arrays, scheme=schemes)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_smith_waterman(self, query, target, scheme):
        assert best_local_score(query, target, scheme) == smith_waterman_score(
            query, target, scheme
        )

    @given(query=codes_arrays, target=codes_arrays, scheme=schemes)
    @settings(max_examples=100, deadline=None)
    def test_column_best_matches_scalar(self, query, target, scheme):
        profile = scan_profile(target, scheme, len(query))
        assert column_best_scores(query, profile, scheme).tolist() == (
            smith_waterman_column_best(query, target, scheme)
        )

    def test_gap_chains_reach_their_full_length(self):
        # After a full-length match the last row's gap chain stays
        # positive for reach - 1 = 39 columns of a tail that matches
        # nothing; those columns' best cells are that chain.
        scheme = ScoringScheme(match=1, mismatch=-1, gap=-1)
        query = alphabet.encode("AC" * 20)
        target = np.concatenate([query, alphabet.encode("T" * 60)])
        profile = scan_profile(target, scheme, len(query))
        col_best = column_best_scores(query, profile, scheme).tolist()
        assert col_best == smith_waterman_column_best(query, target, scheme)
        assert col_best[40:80] == list(range(39, -1, -1))

    @given(query=nonempty_codes, target=nonempty_codes)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, query, target):
        scheme = ScoringScheme()
        assert best_local_score(query, target, scheme) == best_local_score(
            target, query, scheme
        )

    @given(sequence=nonempty_codes)
    def test_self_alignment_of_pure_bases(self, sequence):
        scheme = ScoringScheme()
        bases_only = sequence[sequence < 4]
        expected = int(bases_only.shape[0]) * scheme.match
        if bases_only.shape[0] == sequence.shape[0]:
            assert best_local_score(sequence, sequence, scheme) == expected

    @given(query=codes_arrays, target=codes_arrays)
    def test_score_is_non_negative(self, query, target):
        assert best_local_score(query, target, ScoringScheme()) >= 0

    @given(query=nonempty_codes, target=nonempty_codes, extra=nonempty_codes)
    @settings(max_examples=60, deadline=None)
    def test_appending_target_never_decreases_score(self, query, target, extra):
        scheme = ScoringScheme()
        extended = np.concatenate([target, extra])
        assert best_local_score(query, extended, scheme) >= best_local_score(
            query, target, scheme
        )


class TestEdges:
    def test_empty_query(self):
        scheme = ScoringScheme()
        assert best_local_score(
            np.empty(0, np.uint8), alphabet.encode("ACGT"), scheme
        ) == 0

    def test_empty_target(self):
        scheme = ScoringScheme()
        assert best_local_score(
            alphabet.encode("ACGT"), np.empty(0, np.uint8), scheme
        ) == 0

    def test_query_with_sentinel_rejected(self):
        scheme = ScoringScheme()
        bad = np.array([0, SENTINEL_CODE], dtype=np.uint8)
        with pytest.raises(AlignmentError):
            best_local_score(bad, alphabet.encode("ACGT"), scheme)

    def test_column_best_shape(self):
        scheme = ScoringScheme()
        target = alphabet.encode("ACGTACGT")
        profile = scheme.target_profile(target)
        col_best = column_best_scores(alphabet.encode("ACG"), profile, scheme)
        assert col_best.shape == (8,)
        assert col_best.dtype == np.int32

    def test_huge_gap_penalty_does_not_overflow(self):
        # |gap| * columns passes 2**31 on a target below the crossover:
        # the prefix maximum's ramp would wrap, so bounded doubling runs.
        scheme = ScoringScheme(gap=-(2**21))
        rng = np.random.default_rng(8)
        target = rng.integers(0, 4, 4000, dtype=np.uint8)
        assert target.shape[0] < BOUNDED_CLOSURE_MIN_COLUMNS
        query = np.concatenate([target[3000:3020], target[3021:3040]])
        assert best_local_score(query, target, scheme) == (
            smith_waterman_score(query, target, scheme)
        )


class TestTargetImage:
    def test_build_requires_sequences(self):
        with pytest.raises(AlignmentError):
            TargetImage.build([], ScoringScheme(), 10)

    def test_build_requires_positive_bound(self):
        with pytest.raises(AlignmentError):
            TargetImage.build([alphabet.encode("ACGT")], ScoringScheme(), 0)

    def test_sentinels_separate_sequences(self):
        scheme = ScoringScheme()
        image = TargetImage.build(
            [alphabet.encode("ACGT"), alphabet.encode("ACGT")], scheme, 8
        )
        gap_region = image.codes[4 : int(image.starts[1])]
        assert (gap_region == SENTINEL_CODE).all()

    def test_query_longer_than_bound_rejected(self):
        scheme = ScoringScheme()
        image = TargetImage.build([alphabet.encode("ACGT")], scheme, 4)
        with pytest.raises(AlignmentError, match="rebuild"):
            segment_best_scores(alphabet.encode("ACGTA"), image, scheme)

    @given(
        texts=st.lists(
            st.text(alphabet="ACGTN", min_size=0, max_size=40),
            min_size=1,
            max_size=6,
        ),
        query=st.text(alphabet="ACGT", min_size=1, max_size=25),
        scheme=schemes,
        slack=st.sampled_from([0, 7000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_scores_equal_pairwise_scores(
        self, texts, query, scheme, slack
    ):
        """The concatenated scan must equal per-sequence alignment —
        i.e. sentinels leak nothing across boundaries.  A query bound
        far above the query (``slack``) gives long sentinel runs and,
        for match >= 3, int32 cells."""
        sequences = [alphabet.encode(text) for text in texts]
        query_codes = alphabet.encode(query)
        image = TargetImage.build(sequences, scheme, len(query) + slack)
        scanned = segment_best_scores(query_codes, image, scheme)
        expected = [
            smith_waterman_score(query_codes, target, scheme)
            for target in sequences
        ]
        assert scanned.tolist() == expected

    @given(
        first=sequence_sets,
        second=sequence_sets,
        query=st.text(alphabet="ACGT", min_size=1, max_size=25),
        scheme=schemes,
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_compose_over_concatenated_sets(
        self, first, second, query, scheme
    ):
        """One image over A + B scores exactly what separate images over
        A and B do: sentinel runs make every segment's best score
        independent of its neighbours.  The partitioned engine's one
        fine-phase image per query rests on this."""
        query_codes = alphabet.encode(query)

        def scan(texts):
            image = TargetImage.build(
                [alphabet.encode(text) for text in texts], scheme, len(query)
            )
            return segment_best_scores(query_codes, image, scheme).tolist()

        assert scan(first + second) == scan(first) + scan(second)

    @given(seed=st.integers(0, 2**32 - 1), scheme=schemes)
    @settings(max_examples=15, deadline=None)
    def test_scores_compose_across_the_crossover(self, seed, scheme):
        """Each part is below ``BOUNDED_CLOSURE_MIN_COLUMNS`` (prefix
        maximum) and the whole above it (bounded doubling); the scores
        still compose."""
        rng = np.random.default_rng(seed)
        query = rng.integers(0, 4, int(rng.integers(20, 120)), dtype=np.uint8)
        run = scheme.sentinel_run_length(len(query))

        def part():
            targets, columns = [], 0
            while True:
                target = rng.integers(
                    0, 4, int(rng.integers(100, 600)), dtype=np.uint8
                )
                if columns + len(target) + run >= BOUNDED_CLOSURE_MIN_COLUMNS:
                    return targets
                if len(targets) % 2:
                    half = query[: len(query) // 2]
                    target[10 : 10 + len(half)] = half
                targets.append(target)
                columns += len(target) + run

        first, second = part(), part()
        images = [
            TargetImage.build(targets, scheme, len(query))
            for targets in (first, second, first + second)
        ]
        columns = [image.codes.shape[0] for image in images]
        assert max(columns[:2]) < BOUNDED_CLOSURE_MIN_COLUMNS <= columns[2]
        first_scores, second_scores, whole = (
            segment_best_scores(query, image, scheme).tolist()
            for image in images
        )
        assert whole == first_scores + second_scores

    def test_profile_is_cached_per_scheme(self):
        scheme = ScoringScheme()
        image = TargetImage.build([alphabet.encode("ACGT")], scheme, 4)
        assert image.profile_for(scheme) is image.profile_for(scheme)

    def test_empty_sequences_score_zero(self):
        scheme = ScoringScheme()
        image = TargetImage.build(
            [alphabet.encode("ACGT"), np.empty(0, np.uint8)], scheme, 4
        )
        scores = segment_best_scores(alphabet.encode("ACGT"), image, scheme)
        assert scores.tolist() == [4, 0]

    def test_profile_width_follows_closure_and_query_bound(self):
        scheme = ScoringScheme()
        long_target = np.zeros(BOUNDED_CLOSURE_MIN_COLUMNS, dtype=np.uint8)
        long_target[7] = SENTINEL_CODE
        narrow = scan_profile(long_target, scheme, 200)
        assert narrow.dtype == np.int16
        assert (narrow[:, 7] == -201).all()
        # 2 * 20000 + 2 >= 2**15: int32 cells, sentinel still clamped.
        wide = scan_profile(long_target, scheme, 20_000)
        assert wide.dtype == np.int32
        assert (wide[:, 7] == -20_001).all()
        # Below the crossover the prefix maximum scans target_profile.
        short = scan_profile(long_target[:100], scheme, 200)
        assert np.array_equal(short, scheme.target_profile(long_target[:100]))


class TestLongTargets:
    def test_megabase_scan_runs_and_finds_planted_match(self):
        rng = np.random.default_rng(3)
        target = rng.integers(0, 4, 300_000, dtype=np.uint8)
        query = target[150_000:150_200].copy()
        scheme = ScoringScheme()
        # Bounded doubling on int16 cells.
        assert scan_profile(target, scheme, len(query)).dtype == np.int16
        assert best_local_score(query, target, scheme) == 200


@pytest.mark.usefixtures("forced_closure")
class TestBothClosures(TestAgainstReference):
    """The reference properties, and the cases that reach each cell
    width and the sentinel runs, with the crossover forced to each side."""

    test_segment_scores_equal_pairwise_scores = (
        TestTargetImage.test_segment_scores_equal_pairwise_scores
    )
    test_scores_compose_over_concatenated_sets = (
        TestTargetImage.test_scores_compose_over_concatenated_sets
    )

    def test_int32_cells_match_reference(self, forced_closure):
        # 5 * 3300 = 16500: 2 * max_score + 2 >= 2**15, so int32 cells.
        scheme = ScoringScheme(match=5, mismatch=-4, gap=-3)
        rng = np.random.default_rng(11)
        targets = [
            rng.integers(0, 4, 90, dtype=np.uint8),
            rng.integers(0, 4, 60, dtype=np.uint8),
        ]
        query = rng.integers(0, 4, 3300, dtype=np.uint8)
        query[1000:1060] = targets[1]
        query[2000:2085] = targets[0][5:]
        image = TargetImage.build(targets, scheme, len(query))
        if forced_closure == "bounded":
            assert image.profile_for(scheme).dtype == np.int32
        expected = [smith_waterman_score(query, t, scheme) for t in targets]
        assert segment_best_scores(query, image, scheme).tolist() == expected

    def test_sentinels_hold_above_crossover(self, forced_closure):
        # The query's two ends sit across a sequence boundary, a
        # sentinel run (52 columns) apart — the same distance as the
        # query's middle, so a diagonal through the run would score
        # both ends if the clamped sentinel score were not deadly.
        scheme = ScoringScheme()
        rng = np.random.default_rng(12)
        query = rng.integers(0, 4, 100, dtype=np.uint8)
        run = scheme.sentinel_run_length(len(query))
        assert run == 52
        first = np.concatenate(
            [rng.integers(0, 4, 2500, dtype=np.uint8), query[:24]]
        )
        second = np.concatenate(
            [query[24 + run :], rng.integers(0, 4, 2500, dtype=np.uint8)]
        )
        image = TargetImage.build([first, second], scheme, len(query))
        assert image.codes.shape[0] >= BOUNDED_CLOSURE_MIN_COLUMNS
        if forced_closure == "bounded":
            assert image.profile_for(scheme).dtype == np.int16
        expected = [
            smith_waterman_score(query, target, scheme)
            for target in (first, second)
        ]
        assert segment_best_scores(query, image, scheme).tolist() == expected
